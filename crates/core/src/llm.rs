//! The simulated LLM.
//!
//! A seeded stochastic model of a ChatGPT-class code generator, with
//! exactly the behavioural regularities the paper's §3.3 lessons report:
//!
//! * **Monolithic prompts fail**: defect rates blow up when one prompt
//!   asks for a whole multi-component system.
//! * **Pseudocode stabilises data types**: once the key data types are
//!   pinned by pseudocode-based prompts, later components interoperate;
//!   text-only prompting yields interop mismatches discovered at
//!   integration time.
//! * **Three debugging guidelines**: pasting a compiler/runtime error
//!   fixes type errors; sending a failing test case fixes simple logic
//!   bugs; step-by-step re-specification fixes complex logic bugs.

use crate::paper::ComponentSpec;
use crate::prompt::PromptStyle;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The defect taxonomy of §3.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DefectKind {
    /// Wrong/mismatched data types — surfaces as a compile/runtime error.
    TypeError,
    /// Component disagrees with its peers on shared data structures —
    /// surfaces at integration.
    InteropMismatch,
    /// A simple logic bug — surfaces on a small test case.
    SimpleLogic,
    /// A complex logic bug — needs step-by-step re-specification.
    ComplexLogic,
}

/// A generated implementation of one component.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CodeArtifact {
    /// Which component (index into the paper spec).
    pub component: usize,
    /// Generated lines of code.
    pub loc: u32,
    /// Latent defects (not all are visible immediately).
    pub defects: Vec<DefectKind>,
    /// The statically inspectable shape of the generated code.
    pub surface: CodeSurface,
}

impl CodeArtifact {
    /// Build an artifact whose surface manifests exactly `defects`.
    /// `shared_types` sizes the interop surface (exports), as in
    /// [`crate::paper::ComponentSpec::shared_types`].
    pub fn with_defects(
        component: usize,
        loc: u32,
        shared_types: u32,
        defects: Vec<DefectKind>,
    ) -> Self {
        let surface = CodeSurface::synthesize(component, loc, shared_types, &defects);
        CodeArtifact { component, loc, defects, surface }
    }

    /// Whether a defect of `kind` is present.
    pub fn has(&self, kind: DefectKind) -> bool {
        self.defects.contains(&kind)
    }

    /// Remove one defect of `kind` (a successful fix). The fix also
    /// repairs the defect's structural manifestation on the surface.
    pub fn fix(&mut self, kind: DefectKind) {
        if let Some(i) = self.defects.iter().position(|&d| d == kind) {
            self.defects.remove(i);
        }
        if !self.has(kind) {
            self.surface.repair(self.component, self.loc, kind);
        }
    }

    /// Implant a defect of `kind` together with its structural
    /// manifestation (used by regeneration churn and fault injection).
    pub fn inject(&mut self, kind: DefectKind) {
        self.defects.push(kind);
        self.surface.corrupt(self.component, kind);
    }

    /// A truncated response: half the code arrived. The surface is
    /// resynthesized at the new size (keeping the current defect set's
    /// manifestations) and a type error is implanted if none is present
    /// — truncated code does not compile.
    pub fn truncate(&mut self) {
        self.loc = (self.loc / 2).max(5);
        let shared_types = self.surface.exports.len() as u32;
        self.surface =
            CodeSurface::synthesize(self.component, self.loc, shared_types, &self.defects);
        if !self.has(DefectKind::TypeError) {
            self.inject(DefectKind::TypeError);
        }
    }
}

/// A function signature on the surface: parameter type ids only (the
/// level at which the compiler, and our static auditor, check calls).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Signature {
    /// Function id within the component.
    pub fn_id: u32,
    /// Parameter type ids.
    pub params: Vec<u16>,
}

/// A call site: which function calls which, with which argument types.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CallSite {
    /// Calling function id.
    pub caller: u32,
    /// Called function id (index into the component's signatures).
    pub callee: u32,
    /// Argument type ids as written at the call site.
    pub args: Vec<u16>,
}

/// A shared data type this component exports to its peers, identified
/// by a structural fingerprint (field layout hash). Peers that pinned
/// the type from the spec export [`canonical_fingerprint`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TypeExport {
    /// Shared type id (from the spec's interop surface).
    pub type_id: u32,
    /// Structural fingerprint of this component's definition.
    pub fingerprint: u64,
}

/// A bounded loop on the surface: the bound the surrounding code
/// declares (array length, iteration count) versus the bound the loop
/// body actually exercises. Off-by-one disagreement is the §3.3
/// "simplified logic" archetype.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoopShape {
    /// The bound the surrounding code declares.
    pub declared_bound: u32,
    /// The bound the loop body exercises.
    pub exercised_bound: u32,
}

/// The statically inspectable shape of a generated artifact: enough
/// structure for a pre-execution auditor to find each [`DefectKind`]
/// without running anything, and without reading the latent defect
/// list. Synthesis is a pure function of (component, loc, interop
/// surface, defects) — it draws nothing from the session RNG, so adding
/// it changed no seeded behaviour.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CodeSurface {
    /// Function signatures in the component.
    pub signatures: Vec<Signature>,
    /// Intra-component call sites.
    pub calls: Vec<CallSite>,
    /// Shared-type exports (the interop surface).
    pub exports: Vec<TypeExport>,
    /// Bounded loops.
    pub loops: Vec<LoopShape>,
    /// Conditional-branch count (control-flow density).
    pub branches: u32,
}

/// splitmix64 finalizer — the deterministic hash behind fingerprints
/// and surface shaping. Not a session RNG: same inputs, same surface.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The fingerprint of shared type `type_id` as pinned by the paper
/// spec (the interface registry). Components that implement the spec's
/// data structures faithfully export exactly this value; an interop
/// mismatch is a deviation from it.
pub fn canonical_fingerprint(type_id: u32) -> u64 {
    mix(0xC0DE_0000u64 + type_id as u64)
}

/// Expected conditional-branch count for a component of `loc` lines —
/// the LoC-profile model shared by the generator and the static
/// auditor. Clean code lands within ±8% of this; "complex logic
/// simplified away" (§3.3) shows up as a collapse far below it.
pub fn expected_branches(loc: u32) -> f64 {
    2.0 + loc as f64 / 12.0
}

impl CodeSurface {
    /// Synthesize the surface for a component of `loc` lines with
    /// `shared_types` interop exports, then manifest each defect.
    pub fn synthesize(
        component: usize,
        loc: u32,
        shared_types: u32,
        defects: &[DefectKind],
    ) -> CodeSurface {
        let mut s = CodeSurface::clean(component, loc, shared_types);
        for &d in defects {
            s.corrupt(component, d);
        }
        s
    }

    /// A defect-free surface.
    fn clean(component: usize, loc: u32, shared_types: u32) -> CodeSurface {
        let n_sigs = 2 + (loc / 120) as usize;
        let signatures: Vec<Signature> = (0..n_sigs)
            .map(|i| Signature {
                fn_id: i as u32,
                params: (0..1 + (i + loc as usize) % 3)
                    .map(|p| (mix(((component as u64) << 32) ^ (i * 8 + p) as u64) % 7) as u16)
                    .collect(),
            })
            .collect();
        let calls: Vec<CallSite> = (1..n_sigs)
            .map(|i| CallSite {
                caller: i as u32,
                callee: 0,
                args: signatures[0].params.clone(),
            })
            .collect();
        let exports = (0..shared_types)
            .map(|t| TypeExport { type_id: t, fingerprint: canonical_fingerprint(t) })
            .collect();
        let loops = (0..1 + (loc / 100) as usize)
            .map(|i| {
                let b = 4 + (mix(loc as u64 ^ ((i as u64) << 16)) % 28) as u32;
                LoopShape { declared_bound: b, exercised_bound: b }
            })
            .collect();
        CodeSurface {
            signatures,
            calls,
            exports,
            loops,
            branches: Self::plausible_branches(component, loc),
        }
    }

    /// Clean branch count: the expected density with a deterministic
    /// ±8% per-component jitter (real code is not exactly on-model).
    fn plausible_branches(component: usize, loc: u32) -> u32 {
        let j = 0.92
            + 0.16 * (mix(((component as u64) << 20) ^ loc as u64) % 1000) as f64 / 1000.0;
        (expected_branches(loc) * j).round() as u32
    }

    /// Manifest `kind` structurally.
    pub fn corrupt(&mut self, component: usize, kind: DefectKind) {
        match kind {
            DefectKind::TypeError => {
                // A call site whose argument types disagree with the
                // callee's signature (type id shifted out of range).
                if let Some(c) = self.calls.last_mut() {
                    if let Some(a) = c.args.first_mut() {
                        *a += 7;
                    }
                }
            }
            DefectKind::InteropMismatch => {
                // This component's definition of a shared type drifts
                // from the spec-pinned layout its peers use.
                if let Some(e) = self.exports.first_mut() {
                    e.fingerprint ^= mix(0x5A17 ^ ((component as u64) << 8)) | 1;
                }
            }
            DefectKind::SimpleLogic => {
                // The off-by-one: the loop body runs one step past the
                // declared bound.
                if let Some(l) = self.loops.first_mut() {
                    l.exercised_bound = l.declared_bound + 1;
                }
            }
            DefectKind::ComplexLogic => {
                // The hard part of the algorithm is "simplified" away:
                // control flow collapses far below the LoC profile.
                self.branches = ((self.branches as f64) * 0.4).round().max(1.0) as u32;
            }
        }
    }

    /// Undo the structural manifestation of `kind`.
    pub fn repair(&mut self, component: usize, loc: u32, kind: DefectKind) {
        match kind {
            DefectKind::TypeError => {
                for c in &mut self.calls {
                    if let Some(sig) = self.signatures.iter().find(|s| s.fn_id == c.callee) {
                        c.args = sig.params.clone();
                    }
                }
            }
            DefectKind::InteropMismatch => {
                for e in &mut self.exports {
                    e.fingerprint = canonical_fingerprint(e.type_id);
                }
            }
            DefectKind::SimpleLogic => {
                for l in &mut self.loops {
                    l.exercised_bound = l.declared_bound;
                }
            }
            DefectKind::ComplexLogic => {
                self.branches = Self::plausible_branches(component, loc);
            }
        }
    }
}

/// Behavioural parameters of the simulated LLM.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LlmModel {
    /// Base probability of a type error per component.
    pub p_type_error: f64,
    /// Base probability of a simple logic bug.
    pub p_simple: f64,
    /// Base probability of a complex logic bug.
    pub p_complex: f64,
    /// Interop-mismatch probability per shared type, text prompts.
    pub p_interop_text: f64,
    /// Interop-mismatch probability per shared type once data types are
    /// stabilised by pseudocode-first prompting.
    pub p_interop_stable: f64,
    /// Multiplier applied to all defect rates under monolithic prompts.
    pub monolithic_penalty: f64,
    /// P(fix) when the participant pastes the error message.
    pub fix_error_message: f64,
    /// P(fix a simple bug) when sending the failing test case.
    pub fix_test_case: f64,
    /// P(fix a complex bug) under step-by-step re-specification.
    pub fix_step_by_step: f64,
    /// Chance a regeneration introduces a fresh type error.
    pub churn: f64,
    /// Relative LoC noise (uniform ±).
    pub loc_noise: f64,
}

impl Default for LlmModel {
    fn default() -> Self {
        LlmModel {
            p_type_error: 0.55,
            p_simple: 0.45,
            p_complex: 0.35,
            p_interop_text: 0.28,
            p_interop_stable: 0.05,
            monolithic_penalty: 2.2,
            fix_error_message: 0.9,
            fix_test_case: 0.85,
            fix_step_by_step: 0.8,
            churn: 0.06,
            loc_noise: 0.15,
        }
    }
}

/// The simulated LLM: the model plus a seeded RNG and the session-level
/// "are data types stabilised?" state.
#[derive(Debug)]
pub struct SimulatedLlm {
    /// Behavioural parameters.
    pub model: LlmModel,
    rng: StdRng,
    /// Set once a pseudocode-based prompt has pinned the key data types.
    types_stable: bool,
}

impl SimulatedLlm {
    /// A simulated LLM with default parameters and the given seed.
    pub fn new(seed: u64) -> Self {
        Self::with_model(LlmModel::default(), seed)
    }

    /// A simulated LLM with explicit parameters.
    pub fn with_model(model: LlmModel, seed: u64) -> Self {
        SimulatedLlm { model, rng: StdRng::seed_from_u64(seed), types_stable: false }
    }

    /// Whether pseudocode-first prompting has stabilised the data types.
    pub fn types_stable(&self) -> bool {
        self.types_stable
    }

    /// The session RNG. The participant's own coin flips (which bugs
    /// their tests catch) draw from the same stream so one seed
    /// reproduces an entire session.
    pub fn session_rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    fn bernoulli(&mut self, p: f64) -> bool {
        self.rng.random::<f64>() < p.clamp(0.0, 1.0)
    }

    /// Respond to an implementation prompt for `spec` (component index
    /// `idx`) under `style`.
    pub fn implement(&mut self, spec: &ComponentSpec, idx: usize, style: PromptStyle) -> CodeArtifact {
        let (loc, defects) = self.draw_implementation(spec, style);
        CodeArtifact::with_defects(idx, loc, spec.shared_types, defects)
    }

    /// The RNG draws of [`SimulatedLlm::implement`] — the response's
    /// LoC and defect set — without synthesizing its code surface
    /// (which draws nothing). A response that is discarded unread
    /// needs only these: the RNG stream advances exactly as if the
    /// whole artifact had been built.
    pub fn draw_implementation(
        &mut self,
        spec: &ComponentSpec,
        style: PromptStyle,
    ) -> (u32, Vec<DefectKind>) {
        let penalty = match style {
            PromptStyle::Monolithic => self.model.monolithic_penalty,
            _ => 1.0,
        };
        if style == PromptStyle::ModularPseudocode && spec.has_pseudocode {
            // The pseudocode pins the component's data structures; later
            // components generated against them interoperate.
            self.types_stable = true;
        }
        let mut defects = Vec::new();
        if self.bernoulli(self.model.p_type_error * spec.difficulty * penalty) {
            defects.push(DefectKind::TypeError);
        }
        if self.bernoulli(self.model.p_simple * spec.difficulty * penalty) {
            defects.push(DefectKind::SimpleLogic);
        }
        if self.bernoulli(self.model.p_complex * spec.difficulty * penalty) {
            defects.push(DefectKind::ComplexLogic);
        }
        let p_interop = if self.types_stable && style != PromptStyle::Monolithic {
            self.model.p_interop_stable
        } else {
            self.model.p_interop_text
        };
        for _ in 0..spec.shared_types {
            if self.bernoulli(p_interop * penalty.min(2.0)) {
                defects.push(DefectKind::InteropMismatch);
                break; // one mismatch per component is enough to fail integration
            }
        }
        // ChatGPT "tends to generate shorter code" — LoC centres on the
        // estimate with mild noise.
        let noise = 1.0 + self.model.loc_noise * (self.rng.random::<f64>() * 2.0 - 1.0);
        let loc = ((spec.loc_estimate as f64) * noise).round().max(5.0) as u32;
        (loc, defects)
    }

    /// Respond to a debug prompt. Returns `true` if the targeted defect
    /// class got fixed (the artifact is updated in place either way; a
    /// regeneration may introduce churn).
    pub fn debug(&mut self, artifact: &mut CodeArtifact, target: DefectKind, guideline: Guideline) -> bool {
        let p = match (guideline, target) {
            (Guideline::ErrorMessage, DefectKind::TypeError) => self.model.fix_error_message,
            (Guideline::TestCase, DefectKind::SimpleLogic) => self.model.fix_test_case,
            (Guideline::StepByStep, DefectKind::ComplexLogic) => self.model.fix_step_by_step,
            (Guideline::StepByStep, _) => 0.7,
            (Guideline::TestCase, DefectKind::TypeError) => 0.6,
            (Guideline::TestCase, _) => 0.3,
            (Guideline::ErrorMessage, _) => 0.2,
        };
        let fixed = self.bernoulli(p);
        if fixed {
            artifact.fix(target);
        }
        if self.bernoulli(self.model.churn) && !artifact.has(DefectKind::TypeError) {
            artifact.inject(DefectKind::TypeError);
        }
        fixed
    }
}

/// Which of §3.3's three debugging guidelines a debug prompt follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Guideline {
    /// Paste the compiler/runtime error message.
    ErrorMessage,
    /// Send the failing test case.
    TestCase,
    /// Re-specify the logic step by step.
    StepByStep,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::{PaperSpec, TargetSystem};

    fn spec() -> ComponentSpec {
        PaperSpec::for_system(TargetSystem::NcFlow).components[3].clone()
    }

    #[test]
    fn deterministic_given_seed() {
        let s = spec();
        let a = SimulatedLlm::new(9).implement(&s, 3, PromptStyle::ModularText);
        let b = SimulatedLlm::new(9).implement(&s, 3, PromptStyle::ModularText);
        assert_eq!(a.loc, b.loc);
        assert_eq!(a.defects, b.defects);
    }

    #[test]
    fn monolithic_breeds_more_defects() {
        let s = spec();
        let count = |style| {
            let mut llm = SimulatedLlm::new(1);
            (0..300).map(|i| llm.implement(&s, i, style).defects.len()).sum::<usize>()
        };
        let mono = count(PromptStyle::Monolithic);
        let modular = count(PromptStyle::ModularText);
        assert!(
            mono > modular + modular / 4,
            "monolithic {mono} not clearly worse than modular {modular}"
        );
    }

    #[test]
    fn pseudocode_first_reduces_interop_mismatches() {
        let nc = PaperSpec::for_system(TargetSystem::NcFlow);
        let count_interop = |style: PromptStyle| {
            let mut total = 0;
            for seed in 0..60 {
                let mut llm = SimulatedLlm::new(seed);
                for (i, c) in nc.components.iter().enumerate() {
                    let a = llm.implement(c, i, style);
                    total += a.defects.iter().filter(|&&d| d == DefectKind::InteropMismatch).count();
                }
            }
            total
        };
        let text = count_interop(PromptStyle::ModularText);
        let pseudo = count_interop(PromptStyle::ModularPseudocode);
        assert!(
            pseudo * 2 < text,
            "pseudocode-first ({pseudo}) should at least halve interop bugs vs text ({text})"
        );
    }

    #[test]
    fn error_message_guideline_fixes_type_errors() {
        let mut fixed = 0;
        for seed in 0..200 {
            let mut llm = SimulatedLlm::new(seed);
            let mut a = CodeArtifact::with_defects(0, 100, 2, vec![DefectKind::TypeError]);
            if llm.debug(&mut a, DefectKind::TypeError, Guideline::ErrorMessage) {
                fixed += 1;
            }
        }
        assert!((150..=200).contains(&fixed), "fix rate {fixed}/200 out of range");
    }

    #[test]
    fn mismatched_guideline_is_weak() {
        let mut fixed = 0;
        for seed in 0..200 {
            let mut llm = SimulatedLlm::new(seed);
            let mut a = CodeArtifact::with_defects(0, 100, 2, vec![DefectKind::ComplexLogic]);
            if llm.debug(&mut a, DefectKind::ComplexLogic, Guideline::ErrorMessage) {
                fixed += 1;
            }
        }
        assert!(fixed < 90, "error-message prompts should rarely fix complex bugs: {fixed}");
    }

    #[test]
    fn fix_removes_exactly_one_defect() {
        let mut a = CodeArtifact::with_defects(
            0,
            10,
            1,
            vec![DefectKind::SimpleLogic, DefectKind::SimpleLogic],
        );
        a.fix(DefectKind::SimpleLogic);
        assert_eq!(a.defects.len(), 1);
    }

    #[test]
    fn surface_synthesis_is_deterministic_and_draws_no_rng() {
        // Same seed, same artifact — including the surface — and the
        // RNG stream is untouched by surface synthesis (loc, the last
        // draw, matches between two LLMs that only differ in whether
        // the surface is inspected).
        let s = spec();
        let a = SimulatedLlm::new(9).implement(&s, 3, PromptStyle::ModularText);
        let b = SimulatedLlm::new(9).implement(&s, 3, PromptStyle::ModularText);
        assert_eq!(a.surface, b.surface);
        assert_eq!(a.surface.exports.len(), s.shared_types as usize);
        assert!(!a.surface.signatures.is_empty());
        assert!(!a.surface.calls.is_empty());
    }

    #[test]
    fn fix_and_inject_keep_surface_in_sync() {
        let mut a = CodeArtifact::with_defects(2, 200, 3, vec![DefectKind::TypeError]);
        let clean = CodeSurface::synthesize(2, 200, 3, &[]);
        assert_ne!(a.surface, clean, "defect must manifest structurally");
        a.fix(DefectKind::TypeError);
        assert_eq!(a.surface, clean, "fix must repair the manifestation");
        a.inject(DefectKind::InteropMismatch);
        assert_ne!(a.surface, clean);
        a.fix(DefectKind::InteropMismatch);
        assert_eq!(a.surface, clean);
    }

    #[test]
    fn truncate_halves_loc_and_implants_a_type_error() {
        let mut a = CodeArtifact::with_defects(0, 400, 2, vec![]);
        a.truncate();
        assert_eq!(a.loc, 200);
        assert!(a.has(DefectKind::TypeError));
        let resynth = CodeSurface::synthesize(0, 200, 2, &a.defects);
        assert_eq!(a.surface, resynth);
    }

    #[test]
    fn loc_tracks_estimate() {
        let s = spec();
        let mut llm = SimulatedLlm::new(4);
        for _ in 0..50 {
            let a = llm.implement(&s, 0, PromptStyle::ModularText);
            let lo = (s.loc_estimate as f64 * 0.8) as u32;
            let hi = (s.loc_estimate as f64 * 1.2) as u32;
            assert!((lo..=hi).contains(&a.loc), "loc {} vs estimate {}", a.loc, s.loc_estimate);
        }
    }
}
