package ir

// Figure2Program exposes the Figure 2 module text to the external test
// package.
const Figure2Program = figure2Program
