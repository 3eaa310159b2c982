//! Prompt styles, kinds and word accounting.
//!
//! Word counts follow a simple additive model over the component's
//! description size, so that a session's total word count (Figure 4's
//! second axis) is a deterministic function of the interaction history.

use serde::{Deserialize, Serialize};

/// How the participant phrases implementation prompts (§3.3 lesson 1–2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PromptStyle {
    /// One prompt for the whole system ("implement XX that works in the
    /// following steps …"). ChatGPT "does not respond well" to these.
    Monolithic,
    /// One textual prompt per component.
    ModularText,
    /// One prompt per component, pasting the paper's pseudocode where
    /// available (stabilises data types across components).
    ModularPseudocode,
}

impl PromptStyle {
    /// Stable CLI name (`mono`/`text`/`pseudo`).
    pub fn name(self) -> &'static str {
        match self {
            PromptStyle::Monolithic => "mono",
            PromptStyle::ModularText => "text",
            PromptStyle::ModularPseudocode => "pseudo",
        }
    }

    /// Parse a CLI style name.
    pub fn parse(s: &str) -> Option<PromptStyle> {
        match s.to_ascii_lowercase().as_str() {
            "mono" | "monolithic" => Some(PromptStyle::Monolithic),
            "text" | "modular" => Some(PromptStyle::ModularText),
            "pseudo" | "pseudocode" => Some(PromptStyle::ModularPseudocode),
            _ => None,
        }
    }
}

/// What a single prompt asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PromptKind {
    /// Implement a component (by index into the paper spec).
    Implement {
        /// Component index.
        component: usize,
    },
    /// Report a compiler/runtime error message back to the LLM.
    DebugErrorMessage {
        /// Component index.
        component: usize,
    },
    /// Send a failing test case.
    DebugTestCase {
        /// Component index.
        component: usize,
    },
    /// Re-specify the logic step by step.
    DebugStepByStep {
        /// Component index.
        component: usize,
    },
    /// Ask the LLM to wire components together.
    Integrate,
}

/// A prompt sent during a session.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Prompt {
    /// Style under which it was phrased.
    pub style: PromptStyle,
    /// What it asks.
    pub kind: PromptKind,
    /// Word count.
    pub words: u32,
}

impl Prompt {
    /// Word count of an implementation prompt for a component with the
    /// given description size.
    pub fn implement_words(style: PromptStyle, description_words: u32, has_pseudocode: bool) -> u32 {
        match style {
            // One huge prompt: all descriptions at once (computed by the
            // session as a sum; per component we charge the description).
            PromptStyle::Monolithic => description_words,
            PromptStyle::ModularText => 25 + description_words,
            PromptStyle::ModularPseudocode => {
                // Pseudocode is pasted verbatim: longer prompt, but only
                // where the paper has pseudocode.
                25 + description_words + if has_pseudocode { 80 } else { 0 }
            }
        }
    }

    /// Word count of a debug prompt.
    pub fn debug_words(kind: &PromptKind) -> u32 {
        match kind {
            PromptKind::DebugErrorMessage { .. } => 45, // paste + one line
            PromptKind::DebugTestCase { .. } => 60,
            PromptKind::DebugStepByStep { .. } => 140,
            PromptKind::Implement { .. } | PromptKind::Integrate => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modular_overhead_beats_monolithic_per_component() {
        // A modular prompt spends a fixed overhead per component.
        let m = Prompt::implement_words(PromptStyle::Monolithic, 100, false);
        let t = Prompt::implement_words(PromptStyle::ModularText, 100, false);
        assert!(t > m);
    }

    #[test]
    fn pseudocode_costs_words_only_when_available() {
        let with = Prompt::implement_words(PromptStyle::ModularPseudocode, 100, true);
        let without = Prompt::implement_words(PromptStyle::ModularPseudocode, 100, false);
        assert_eq!(with - without, 80);
    }

    #[test]
    fn step_by_step_is_the_most_expensive_debug() {
        let e = Prompt::debug_words(&PromptKind::DebugErrorMessage { component: 0 });
        let t = Prompt::debug_words(&PromptKind::DebugTestCase { component: 0 });
        let s = Prompt::debug_words(&PromptKind::DebugStepByStep { component: 0 });
        assert!(e < t && t < s);
    }
}
