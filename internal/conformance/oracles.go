package conformance

import (
	"fmt"
	"sort"
	"strings"

	"ratte/internal/bugs"
	"ratte/internal/compiler"
	"ratte/internal/dialects"
	"ratte/internal/difftest"
	"ratte/internal/gen"
	"ratte/internal/ir"
	"ratte/internal/mutate"
	"ratte/internal/verify"
)

// The built-in oracle families. An oracle's Name is its family joined
// with its parameters by "/" — e.g. "round-trip/ariths",
// "prefix-equivalence/tensor/O2" — and Lookup inverts that spelling.
const (
	FamilyRoundTrip     = "round-trip"
	FamilyVerifierIdem  = "verifier-idempotent"
	FamilyPrefixEquiv   = "prefix-equivalence"
	FamilyMutationEquiv = "mutation-equivalence"
	FamilyCampaignAgree = "campaign-agreement"
	FamilyDifftest      = "difftest"
)

// BugCarrier is implemented by oracles that check against a deliberately
// bug-injected compiler build; the engine uses it to record the injected
// defects in persisted regressions, so the corpus replayer can assert
// the reproducer still fires against that build.
type BugCarrier interface {
	InjectedBugs() bugs.Set
}

// generate builds the trial module with the semantics-guided generator
// and asserts the generator's own contract (statically valid, the
// incremental expected output matches a from-scratch interpretation is
// asserted elsewhere); a violation is a generator bug and aborts the
// run rather than becoming a counterexample of this oracle.
func generate(preset string, size int, seed int64) (*ir.Module, error) {
	p, err := gen.Generate(gen.Config{Preset: preset, Size: size, Seed: seed})
	if err != nil {
		return nil, err
	}
	return p.Module, nil
}

// reference interprets m under the Ratte reference semantics, reporting
// ok=false for modules outside the conformance domain (statically
// invalid, UB-carrying or trapping) — shrink candidates land there and
// must check clean.
func reference(m *ir.Module) (string, bool) {
	if err := verify.Module(m, dialects.SourceSpecs()); err != nil {
		return "", false
	}
	res, err := dialects.NewReferenceInterpreter().Run(m, "main")
	if err != nil {
		return "", false
	}
	return res.Output, true
}

// ---------------------------------------------------------------------
// round-trip/<preset>: print → parse → print is the identity on text.

type roundTrip struct{ preset string }

// NewRoundTrip returns the printer/parser round-trip oracle.
func NewRoundTrip(preset string) Oracle { return roundTrip{preset} }

func (o roundTrip) Name() string { return FamilyRoundTrip + "/" + o.preset }

func (o roundTrip) Generate(seed int64) (*ir.Module, error) {
	return generate(o.preset, 30, seed)
}

func (o roundTrip) Check(m *ir.Module, _ int64) *Failure {
	text := ir.Print(m)
	back, err := ir.Parse(text)
	if err != nil {
		return &Failure{Detail: fmt.Sprintf("printed module does not re-parse: %v", err)}
	}
	if again := ir.Print(back); again != text {
		return &Failure{Detail: fmt.Sprintf("round-trip not stable: %d-byte print re-prints as %d bytes", len(text), len(again))}
	}
	return nil
}

// ---------------------------------------------------------------------
// verifier-idempotent/<preset>: verification is a pure function — it
// never mutates the module and repeated runs agree (same acceptance,
// same diagnostic). This holds for every module, valid or not, so the
// shrinker is unconstrained.

type verifierIdem struct{ preset string }

// NewVerifierIdempotent returns the verifier purity/idempotence oracle.
func NewVerifierIdempotent(preset string) Oracle { return verifierIdem{preset} }

func (o verifierIdem) Name() string { return FamilyVerifierIdem + "/" + o.preset }

func (o verifierIdem) Generate(seed int64) (*ir.Module, error) {
	return generate(o.preset, 30, seed)
}

func (o verifierIdem) Check(m *ir.Module, _ int64) *Failure {
	before := ir.Print(m)
	err1 := verify.Module(m, dialects.SourceSpecs())
	if after := ir.Print(m); after != before {
		return &Failure{Detail: "verifier mutated the module"}
	}
	err2 := verify.Module(m, dialects.SourceSpecs())
	if (err1 == nil) != (err2 == nil) {
		return &Failure{Detail: fmt.Sprintf("verifier not deterministic: %v vs %v", err1, err2)}
	}
	if err1 != nil && err1.Error() != err2.Error() {
		return &Failure{Detail: fmt.Sprintf("verifier diagnostic unstable: %q vs %q", err1, err2)}
	}
	return nil
}

// ---------------------------------------------------------------------
// prefix-equivalence/<preset>/O<n>[-noexpand]: after EVERY executable
// prefix of the preset's pipeline, the module — a mixed-dialect module
// mid-lowering — still executes to the reference output. A pass that
// corrupts semantics anywhere in the pipeline fails here with the exact
// prefix identified. The only non-executable prefix is the one ending
// immediately after one-shot-bufferize (bufferised but the linalg ops
// not yet lowered to loops), which is skipped.

type prefixEquiv struct {
	preset     string
	level      compiler.OptLevel
	skipExpand bool
}

// NewPrefixEquivalence returns the per-pass-prefix semantic-equivalence
// oracle for one (preset, optimisation level, lowering strategy).
func NewPrefixEquivalence(preset string, level compiler.OptLevel, skipExpand bool) Oracle {
	return prefixEquiv{preset, level, skipExpand}
}

func (o prefixEquiv) Name() string {
	cfg := compiler.Config{Level: o.level, SkipArithExpand: o.skipExpand}
	return FamilyPrefixEquiv + "/" + o.preset + "/" + cfg.String()
}

func (o prefixEquiv) Generate(seed int64) (*ir.Module, error) {
	return generate(o.preset, 25, seed)
}

func (o prefixEquiv) Check(m *ir.Module, _ int64) *Failure {
	ref, ok := reference(m)
	if !ok {
		return nil
	}
	names, err := compiler.PipelineForConfig(o.preset, o.level, o.skipExpand)
	if err != nil {
		return &Failure{Detail: err.Error()}
	}
	bufferizeAt := -1
	for i, n := range names {
		if n == "one-shot-bufferize" {
			bufferizeAt = i
		}
	}
	for prefix := 0; prefix <= len(names); prefix++ {
		if bufferizeAt >= 0 && prefix == bufferizeAt+1 {
			continue // bufferised-but-not-looped: internal-only state
		}
		pipe, err := compiler.NewPipeline(names[:prefix]...)
		if err != nil {
			return &Failure{Detail: err.Error()}
		}
		mm := m.Clone()
		if err := pipe.Run(mm, &compiler.Options{}); err != nil {
			return &Failure{Detail: fmt.Sprintf("after %v: pass rejected a valid UB-free module: %v", names[:prefix], err)}
		}
		res, err := dialects.NewExecutor().Run(mm, "main")
		if err != nil {
			return &Failure{Detail: fmt.Sprintf("after %v: execution failed: %v", names[:prefix], err)}
		}
		if res.Output != ref {
			return &Failure{Detail: fmt.Sprintf("after %v: output %q, reference %q", names[:prefix], res.Output, ref)}
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// mutation-equivalence/<preset>: metamorphic testing via
// internal/mutate — a semantics-preserving mutant, compiled under every
// build configuration, must behave exactly like the compiled original.
// This is a second, reference-free oracle on top of DT-R: any
// divergence is a bug in either a mutation rule or a compiler pass.

type mutationEquiv struct{ preset string }

// NewMutationEquivalence returns the metamorphic mutation oracle.
func NewMutationEquivalence(preset string) Oracle { return mutationEquiv{preset} }

func (o mutationEquiv) Name() string { return FamilyMutationEquiv + "/" + o.preset }

func (o mutationEquiv) Generate(seed int64) (*ir.Module, error) {
	return generate(o.preset, 25, seed)
}

func (o mutationEquiv) Check(m *ir.Module, seed int64) *Failure {
	ref, ok := reference(m)
	if !ok {
		return nil
	}
	mutant, rules := mutate.Mutate(m, seed, 3)
	if len(rules) == 0 {
		return nil // nothing mutable: the relation holds vacuously
	}
	if err := verify.Module(mutant, dialects.SourceSpecs()); err != nil {
		return &Failure{Detail: fmt.Sprintf("mutations %v produced a statically invalid module: %v", rules, err)}
	}
	orig := difftest.TestModule(m, ref, o.preset, nil)
	mut := difftest.TestModule(mutant, ref, o.preset, nil)
	for _, bc := range difftest.BuildConfigs {
		lo, lm := orig.Levels[bc], mut.Levels[bc]
		if (lo.CompileErr == nil) != (lm.CompileErr == nil) {
			return &Failure{Detail: fmt.Sprintf("mutations %v at %s: compile outcome diverged: %v vs %v", rules, bc, lo.CompileErr, lm.CompileErr)}
		}
		if (lo.RunErr == nil) != (lm.RunErr == nil) {
			return &Failure{Detail: fmt.Sprintf("mutations %v at %s: run outcome diverged: %v vs %v", rules, bc, lo.RunErr, lm.RunErr)}
		}
		if lo.Output != lm.Output {
			return &Failure{Detail: fmt.Sprintf("mutations %v at %s: output %q vs mutant %q", rules, bc, lo.Output, lm.Output)}
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// campaign-agreement/<preset>: the serial and parallel campaign engines
// are observationally identical — same programs, same detections in
// seed order, same per-oracle tallies — for the same configuration.
// Runs against the all-bugs build so there are detections to compare,
// in both exhaustive and stop-at-first mode (where the engines'
// result-shape once disagreed). Module-free: there is nothing to
// shrink, the campaign seed schedule itself is the input.

type campaignAgree struct{ preset string }

// NewCampaignAgreement returns the serial-vs-parallel engine oracle.
func NewCampaignAgreement(preset string) Oracle { return campaignAgree{preset} }

func (o campaignAgree) Name() string { return FamilyCampaignAgree + "/" + o.preset }

func (o campaignAgree) Generate(int64) (*ir.Module, error) { return nil, nil }

func (o campaignAgree) Check(_ *ir.Module, seed int64) *Failure {
	for _, stop := range []bool{false, true} {
		cfg := difftest.CampaignConfig{
			Preset:      o.preset,
			Programs:    4,
			Size:        15,
			Seed:        seed,
			Bugs:        bugs.All(),
			StopAtFirst: stop,
		}
		serial, err := difftest.RunCampaign(cfg)
		if err != nil {
			return &Failure{Detail: fmt.Sprintf("serial engine failed: %v", err)}
		}
		parallel, err := difftest.RunCampaignParallel(cfg, 4)
		if err != nil {
			return &Failure{Detail: fmt.Sprintf("parallel engine failed: %v", err)}
		}
		if d := difftest.DiffResults(serial, parallel); d != "" {
			return &Failure{Detail: fmt.Sprintf("stopAtFirst=%v: engines disagree: %s", stop, d)}
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// difftest/<preset>: the end-to-end differential property — a
// statically valid, UB-free module compiles and runs to the reference
// output under every build configuration. With no injected bugs this
// asserts the substrate compiler is clean; with a bug set injected it
// is the bug-finder the paper's Table 3 campaign runs, and the harness
// shrinks whatever it catches into the regression corpus.

type diffTest struct {
	preset string
	bugSet bugs.Set
}

// NewDifftest returns the differential-testing oracle against a
// (possibly bug-injected) compiler build.
func NewDifftest(preset string, bugSet bugs.Set) Oracle {
	return diffTest{preset, bugSet}
}

func (o diffTest) Name() string { return FamilyDifftest + "/" + o.preset }

// InjectedBugs exposes the build's defects for regression persistence.
func (o diffTest) InjectedBugs() bugs.Set { return o.bugSet }

func (o diffTest) Generate(seed int64) (*ir.Module, error) {
	return generate(o.preset, 30, seed)
}

func (o diffTest) Check(m *ir.Module, _ int64) *Failure {
	ref, ok := reference(m)
	if !ok {
		return nil
	}
	rep := difftest.TestModule(m, ref, o.preset, o.bugSet)
	if fired := rep.Detected(); fired != difftest.OracleNone {
		return &Failure{
			Detail: fmt.Sprintf("%s fired under build configs %v", fired, describeLevels(rep)),
			Fired:  string(fired),
		}
	}
	return nil
}

// describeLevels summarises a report's per-configuration outcomes.
func describeLevels(rep *difftest.Report) []string {
	var out []string
	for _, bc := range difftest.BuildConfigs {
		lr := rep.Levels[bc]
		switch {
		case lr.CompileErr != nil:
			out = append(out, fmt.Sprintf("%s:reject", bc))
		case lr.RunErr != nil:
			out = append(out, fmt.Sprintf("%s:crash", bc))
		case lr.Output != rep.Reference:
			out = append(out, fmt.Sprintf("%s:wrong-output", bc))
		default:
			out = append(out, fmt.Sprintf("%s:ok", bc))
		}
	}
	return out
}

// ---------------------------------------------------------------------
// Registry.

// StandardOracles returns the full built-in oracle battery: for every
// generator preset the round-trip, verifier, mutation, difftest
// (correct build), campaign-agreement, plan-legality and
// plan-equivalence properties, plus prefix-equivalence across every
// optimisation level.
func StandardOracles() []Oracle {
	var os []Oracle
	for _, preset := range gen.AllPresets() {
		os = append(os,
			NewRoundTrip(preset),
			NewVerifierIdempotent(preset),
		)
		for _, level := range compiler.OptLevels {
			os = append(os, NewPrefixEquivalence(preset, level, false))
		}
		os = append(os,
			NewMutationEquivalence(preset),
			NewCoverageInert(preset),
			NewDifftest(preset, bugs.None()),
			NewCampaignAgreement(preset),
			NewFaultTolerance(preset),
			NewFleetChaos(preset),
			NewPlanLegality(preset),
			NewPlanEquivalence(preset, bugs.None()),
		)
	}
	return os
}

// OracleNames lists the standard oracles' names, sorted.
func OracleNames() []string {
	var names []string
	for _, o := range StandardOracles() {
		names = append(names, o.Name())
	}
	sort.Strings(names)
	return names
}

// Lookup reconstructs an oracle from its Name() spelling. This is what
// lets a persisted regression name the property it violated and have
// the corpus replayer re-check it years later.
func Lookup(name string) (Oracle, error) {
	parts := strings.Split(name, "/")
	if len(parts) < 2 {
		return nil, fmt.Errorf("conformance: malformed oracle name %q", name)
	}
	family, preset := parts[0], parts[1]
	if !validPreset(preset) {
		return nil, fmt.Errorf("conformance: oracle %q: unknown preset %q (want one of %v)", name, preset, gen.AllPresets())
	}
	switch family {
	case FamilyRoundTrip:
		return NewRoundTrip(preset), nil
	case FamilyVerifierIdem:
		return NewVerifierIdempotent(preset), nil
	case FamilyMutationEquiv:
		return NewMutationEquivalence(preset), nil
	case FamilyCoverageInert:
		return NewCoverageInert(preset), nil
	case FamilyCampaignAgree:
		return NewCampaignAgreement(preset), nil
	case FamilyFaultTolerance:
		return NewFaultTolerance(preset), nil
	case FamilyFleetChaos:
		return NewFleetChaos(preset), nil
	case FamilyDifftest:
		return NewDifftest(preset, bugs.None()), nil
	case FamilyPlanLegality:
		return NewPlanLegality(preset), nil
	case FamilyPlanEquiv:
		return NewPlanEquivalence(preset, bugs.None()), nil
	case FamilyPrefixEquiv:
		if len(parts) != 3 {
			return nil, fmt.Errorf("conformance: oracle %q: want %s/<preset>/O<level>[-noexpand]", name, FamilyPrefixEquiv)
		}
		spec := parts[2]
		skip := strings.HasSuffix(spec, "-noexpand")
		spec = strings.TrimSuffix(spec, "-noexpand")
		var level compiler.OptLevel
		switch spec {
		case "O0":
			level = compiler.O0
		case "O1":
			level = compiler.O1
		case "O2":
			level = compiler.O2
		default:
			return nil, fmt.Errorf("conformance: oracle %q: unknown optimisation level %q", name, spec)
		}
		return NewPrefixEquivalence(preset, level, skip), nil
	}
	return nil, fmt.Errorf("conformance: unknown oracle family %q in %q", family, name)
}

func validPreset(p string) bool {
	for _, q := range gen.AllPresets() {
		if p == q {
			return true
		}
	}
	return false
}
