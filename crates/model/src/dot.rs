//! Graphviz (DOT) export — machine-readable regenerations of the paper's
//! protocol figures (Figs. 1, 2, 3, 8).
//!
//! One cluster is drawn for the master and one for a representative slave
//! (`site i, i = 2..n` in the paper's caption language). Timeout transitions
//! from an [`Augmentation`] are drawn dashed, undeliverable-message
//! transitions dotted — matching the legend of the paper's Fig. 2.

use crate::fsa::{Augmentation, ProtocolSpec, Role, StateKind};
use std::fmt::Write as _;

/// Renders the protocol (and optional augmentation) as a DOT digraph.
pub fn to_dot(spec: &ProtocolSpec, augmentation: Option<&Augmentation>) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", spec.name);
    let _ = writeln!(out, "  rankdir=TB;");
    let _ = writeln!(out, "  node [shape=circle, fontname=\"Helvetica\"];");

    for (cluster, site, role, title) in
        [(0, 0usize, Role::Master, "master (site 1)"), (1, 1usize, Role::Slave, "slave (site i)")]
    {
        let ss = &spec.sites[site];
        let _ = writeln!(out, "  subgraph cluster_{cluster} {{");
        let _ = writeln!(out, "    label=\"{title}\";");
        for st in &ss.states {
            let shape = match st.kind {
                StateKind::Commit | StateKind::Abort => "doublecircle",
                _ => "circle",
            };
            let _ = writeln!(
                out,
                "    \"{}_{}\" [label=\"{}\", shape={shape}];",
                role_tag(role),
                st.name,
                st.name
            );
        }
        for t in &ss.transitions {
            let reads: Vec<&str> = t.reads.iter().map(|m| spec.kinds[m.kind as usize]).collect();
            let writes: Vec<&str> = t.writes.iter().map(|m| spec.kinds[m.kind as usize]).collect();
            let mut label = String::new();
            if reads.is_empty() {
                label.push_str("(request)");
            } else {
                label.push_str(&dedup_join(&reads));
            }
            if !writes.is_empty() {
                label.push('/');
                label.push_str(&dedup_join(&writes));
            }
            let _ = writeln!(
                out,
                "    \"{}_{}\" -> \"{}_{}\" [label=\"{label}\"];",
                role_tag(role),
                ss.states[t.from].name,
                role_tag(role),
                ss.states[t.to].name,
            );
        }
        if let Some(aug) = augmentation {
            for st in &ss.states {
                if st.kind.is_final() {
                    continue;
                }
                if let Some(d) = aug.timeout_for(role, &st.name) {
                    let _ = writeln!(
                        out,
                        "    \"{}_{}\" -> \"{}_{}\" [style=dashed, label=\"timeout\"];",
                        role_tag(role),
                        st.name,
                        role_tag(role),
                        ss.states[ss.decision_state(d)].name,
                    );
                }
                if let Some(d) = aug.ud_for(role, &st.name) {
                    let _ = writeln!(
                        out,
                        "    \"{}_{}\" -> \"{}_{}\" [style=dotted, label=\"UD\"];",
                        role_tag(role),
                        st.name,
                        role_tag(role),
                        ss.states[ss.decision_state(d)].name,
                    );
                }
            }
        }
        let _ = writeln!(out, "  }}");
    }
    let _ = writeln!(out, "}}");
    out
}

fn role_tag(role: Role) -> &'static str {
    match role {
        Role::Master => "m",
        Role::Slave => "s",
    }
}

/// Joins kind names, collapsing duplicates ("yes,yes" -> "yes*").
fn dedup_join(kinds: &[&str]) -> String {
    let mut out = String::new();
    let mut seen: Vec<&str> = Vec::new();
    for k in kinds {
        if !seen.contains(k) {
            seen.push(k);
            if !out.is_empty() {
                out.push(',');
            }
            out.push_str(k);
            if kinds.iter().filter(|x| *x == k).count() > 1 {
                out.push('*');
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::{MODIFIED_THREE_PHASE, THREE_PHASE, TWO_PHASE};
    use crate::rules::derive_rules_augmentation;

    #[test]
    fn dot_contains_master_and_slave_clusters() {
        let dot = to_dot(&TWO_PHASE.spec(3), None);
        assert!(dot.contains("cluster_0"));
        assert!(dot.contains("cluster_1"));
        assert!(dot.contains("master (site 1)"));
        assert!(dot.contains("slave (site i)"));
    }

    #[test]
    fn final_states_are_double_circles() {
        let dot = to_dot(&THREE_PHASE.spec(3), None);
        assert!(dot.contains("\"m_c1\" [label=\"c1\", shape=doublecircle]"));
        assert!(dot.contains("\"s_a\" [label=\"a\", shape=doublecircle]"));
    }

    #[test]
    fn augmented_dot_has_dashed_timeout_edges() {
        let spec = THREE_PHASE.spec(2);
        let aug = derive_rules_augmentation(&spec).augmentation;
        let dot = to_dot(&spec, Some(&aug));
        assert!(dot.contains("style=dashed"));
        assert!(dot.contains("style=dotted"));
    }

    #[test]
    fn duplicate_kinds_collapse() {
        // The master reads yes from every slave: rendered once with a star.
        let dot = to_dot(&THREE_PHASE.spec(4), None);
        assert!(dot.contains("yes*"));
        assert!(!dot.contains("yes,yes"));
    }

    #[test]
    fn modified_3pc_has_w_to_c_edge() {
        let dot = to_dot(&MODIFIED_THREE_PHASE.spec(3), None);
        assert!(dot.contains("\"s_w\" -> \"s_c\""));
    }

    #[test]
    fn output_is_valid_ish_dot() {
        let dot = to_dot(&TWO_PHASE.spec(2), None);
        assert!(dot.starts_with("digraph"));
        assert!(dot.trim_end().ends_with('}'));
        // Balanced braces.
        let open = dot.matches('{').count();
        let close = dot.matches('}').count();
        assert_eq!(open, close);
    }
}
