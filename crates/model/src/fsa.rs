//! Commit protocols as communicating finite state automata.
//!
//! This is the formal model of Skeen & Stonebraker (IEEE TSE 1983) that the
//! paper builds on (Sec. 2): "Transaction execution at each site is modelled
//! as a finite state automaton (FSA), with the network serving as a common
//! input/output tape to all sites."
//!
//! A [`ProtocolSpec`] holds one automaton per site. Transitions read a
//! (possibly empty) set of messages addressed to the site, write a set of
//! messages, and move to the next local state. Spontaneous transitions (empty
//! read set) model external stimuli such as the user's "request" at the
//! master or a slave's unilateral no-vote.

use std::collections::BTreeMap;
use std::fmt;

/// Classification of a local state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StateKind {
    /// The initial state `q`.
    Initial,
    /// Any non-final, non-initial state (`w`, `p`, ...).
    Intermediate,
    /// The commit state `c` (final).
    Commit,
    /// The abort state `a` (final).
    Abort,
}

impl StateKind {
    /// Final states admit no further transitions.
    pub fn is_final(self) -> bool {
        matches!(self, StateKind::Commit | StateKind::Abort)
    }
}

/// A local state of one site's automaton.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateDef {
    /// Display name, e.g. `"w1"` for the master's wait state.
    pub name: String,
    /// Classification.
    pub kind: StateKind,
}

/// A message instance: kind plus addressing. In the formal model the
/// message *instance* `yes_2` (slave 2's yes, addressed to the master) is
/// distinct from `yes_3`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Msg {
    /// Index into the spec's message-kind table.
    pub kind: u8,
    /// Sending site.
    pub src: u8,
    /// Destination site.
    pub dst: u8,
}

/// A transition of one site's automaton.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transition {
    /// Source local state (index into the site's state table).
    pub from: usize,
    /// Destination local state.
    pub to: usize,
    /// Messages consumed — all must be outstanding and addressed to this
    /// site. Empty means the transition is spontaneous.
    pub reads: Vec<Msg>,
    /// Messages produced.
    pub writes: Vec<Msg>,
    /// True if taking this transition constitutes the site's yes-vote.
    /// Used for the committable-state classification (Sec. 3).
    pub votes_yes: bool,
}

impl Transition {
    /// True if `pool` holds every message this transition reads (multiset
    /// containment: counts matter if `reads` repeats an instance).
    #[inline]
    pub fn enabled_by(&self, pool: &[Msg]) -> bool {
        self.reads.iter().all(|r| {
            let needed = self.reads.iter().filter(|x| *x == r).count();
            pool.iter().filter(|x| *x == r).count() >= needed
        })
    }
}

/// One site's automaton.
#[derive(Debug, Clone, Default)]
pub struct SiteSpec {
    /// Local states; index 0 is the initial state.
    pub states: Vec<StateDef>,
    /// Transitions.
    pub transitions: Vec<Transition>,
}

impl SiteSpec {
    /// Index of the state named `name`.
    ///
    /// # Panics
    /// Panics if the name is unknown (specs are static, so this is a bug).
    pub fn state_index(&self, name: &str) -> usize {
        self.states
            .iter()
            .position(|s| s.name == name)
            .unwrap_or_else(|| panic!("unknown state {name:?}"))
    }

    /// Index of the state that decides `d` (the site's commit or abort
    /// state).
    pub fn decision_state(&self, d: Decision) -> usize {
        let kind = match d {
            Decision::Commit => StateKind::Commit,
            Decision::Abort => StateKind::Abort,
        };
        self.states
            .iter()
            .position(|s| s.kind == kind)
            .expect("protocol has commit and abort states")
    }
}

/// Which role a site plays. Site 0 is always the master in this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Role {
    /// The coordinator (the paper's site 1; our site 0).
    Master,
    /// Any other participant.
    Slave,
}

/// A reference to a local state: `(site, state index)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateRef {
    /// Site index.
    pub site: usize,
    /// State index within that site's automaton.
    pub state: usize,
}

/// A complete protocol: one automaton per site plus the message-kind table.
#[derive(Debug, Clone)]
pub struct ProtocolSpec {
    /// Human-readable protocol name (e.g. `"3PC"`).
    pub name: String,
    /// Per-site automata; index 0 is the master.
    pub sites: Vec<SiteSpec>,
    /// Message-kind names; `Msg::kind` indexes this table.
    pub kinds: Vec<&'static str>,
}

impl ProtocolSpec {
    /// Number of sites.
    pub fn n(&self) -> usize {
        self.sites.len()
    }

    /// The role of a site (site 0 is the master).
    pub fn role_of(&self, site: usize) -> Role {
        if site == 0 {
            Role::Master
        } else {
            Role::Slave
        }
    }

    /// Kind index for a kind name.
    ///
    /// # Panics
    /// Panics if the kind is not in the table.
    pub fn kind_index(&self, kind: &str) -> u8 {
        self.kinds
            .iter()
            .position(|k| *k == kind)
            .unwrap_or_else(|| panic!("unknown message kind {kind:?}")) as u8
    }

    /// Display name of a local state.
    pub fn state_name(&self, r: StateRef) -> &str {
        &self.sites[r.site].states[r.state].name
    }

    /// Kind of a local state.
    pub fn state_kind(&self, r: StateRef) -> StateKind {
        self.sites[r.site].states[r.state].kind
    }

    /// Iterates over every `(site, state index)` pair.
    pub fn all_states(&self) -> impl Iterator<Item = StateRef> + '_ {
        self.sites
            .iter()
            .enumerate()
            .flat_map(|(site, ss)| (0..ss.states.len()).map(move |state| StateRef { site, state }))
    }

    /// Looks up a state by `(site, name)`.
    pub fn state_ref(&self, site: usize, name: &str) -> StateRef {
        StateRef { site, state: self.sites[site].state_index(name) }
    }

    /// Basic well-formedness checks: transition indices in range, message
    /// addressing consistent with the owning site, final states without
    /// outgoing transitions.
    pub fn validate(&self) -> Result<(), String> {
        for (site, ss) in self.sites.iter().enumerate() {
            for (ti, t) in ss.transitions.iter().enumerate() {
                if t.from >= ss.states.len() || t.to >= ss.states.len() {
                    return Err(format!(
                        "{}: site {site} transition {ti} state out of range",
                        self.name
                    ));
                }
                if ss.states[t.from].kind.is_final() {
                    return Err(format!(
                        "{}: site {site} has a transition out of final state {}",
                        self.name, ss.states[t.from].name
                    ));
                }
                for m in &t.reads {
                    if m.dst as usize != site {
                        return Err(format!(
                            "{}: site {site} reads a message addressed to site {}",
                            self.name, m.dst
                        ));
                    }
                    if m.kind as usize >= self.kinds.len() {
                        return Err(format!("{}: bad message kind index {}", self.name, m.kind));
                    }
                }
                for m in &t.writes {
                    if m.src as usize != site {
                        return Err(format!(
                            "{}: site {site} writes a message with src {}",
                            self.name, m.src
                        ));
                    }
                    if m.kind as usize >= self.kinds.len() {
                        return Err(format!("{}: bad message kind index {}", self.name, m.kind));
                    }
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for ProtocolSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "protocol {} ({} sites)", self.name, self.n())?;
        for (site, ss) in self.sites.iter().enumerate() {
            writeln!(f, "  site {site} ({:?}):", self.role_of(site))?;
            for t in &ss.transitions {
                let reads: Vec<String> = t
                    .reads
                    .iter()
                    .map(|m| format!("{}[{}->{}]", self.kinds[m.kind as usize], m.src, m.dst))
                    .collect();
                let writes: Vec<String> = t
                    .writes
                    .iter()
                    .map(|m| format!("{}[{}->{}]", self.kinds[m.kind as usize], m.src, m.dst))
                    .collect();
                writeln!(
                    f,
                    "    {} --[{}]/[{}]--> {}",
                    ss.states[t.from].name,
                    reads.join(","),
                    writes.join(","),
                    ss.states[t.to].name,
                )?;
            }
        }
        Ok(())
    }
}

/// The two possible terminal decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Decision {
    /// Transaction committed.
    Commit,
    /// Transaction aborted.
    Abort,
}

impl fmt::Display for Decision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Decision::Commit => write!(f, "commit"),
            Decision::Abort => write!(f, "abort"),
        }
    }
}

/// Augmentation of a protocol with timeout and undeliverable-message
/// transitions, keyed by role and state name so one table covers all slaves
/// (the paper's Figs. 2 and 8 draw one slave automaton for all `i`).
///
/// `timeout[s] = d` means "on timing out in `s`, decide `d`";
/// `ud[s] = d` means "on receiving one of your own messages back as
/// undeliverable while in `s`, decide `d`". States without entries block on
/// that event.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Augmentation {
    /// Timeout transitions: `(role, state name) -> decision`.
    pub timeout: BTreeMap<(Role, String), Decision>,
    /// Undeliverable-message transitions: `(role, state name) -> decision`.
    pub ud: BTreeMap<(Role, String), Decision>,
}

impl Augmentation {
    /// Timeout decision for a state, if assigned.
    pub fn timeout_for(&self, role: Role, state_name: &str) -> Option<Decision> {
        self.timeout.get(&(role, state_name.to_owned())).copied()
    }

    /// UD decision for a state, if assigned.
    pub fn ud_for(&self, role: Role, state_name: &str) -> Option<Decision> {
        self.ud.get(&(role, state_name.to_owned())).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::THREE_PHASE;

    #[test]
    fn state_kind_finality() {
        assert!(StateKind::Commit.is_final());
        assert!(StateKind::Abort.is_final());
        assert!(!StateKind::Initial.is_final());
        assert!(!StateKind::Intermediate.is_final());
    }

    #[test]
    fn three_phase_validates() {
        let spec = THREE_PHASE.spec(3);
        spec.validate().expect("3PC spec must be well-formed");
    }

    #[test]
    fn state_lookup_roundtrip() {
        let spec = THREE_PHASE.spec(3);
        let w1 = spec.state_ref(0, "w1");
        assert_eq!(spec.state_name(w1), "w1");
        assert_eq!(spec.state_kind(w1), StateKind::Intermediate);
    }

    #[test]
    fn role_assignment() {
        let spec = THREE_PHASE.spec(4);
        assert_eq!(spec.role_of(0), Role::Master);
        assert_eq!(spec.role_of(3), Role::Slave);
    }

    #[test]
    fn all_states_counts() {
        let spec = THREE_PHASE.spec(3);
        // master: q1,w1,p1,c1,a1 = 5; slaves: q,w,p,c,a = 5 each.
        assert_eq!(spec.all_states().count(), 15);
    }

    #[test]
    #[should_panic(expected = "unknown state")]
    fn unknown_state_panics() {
        let spec = THREE_PHASE.spec(3);
        spec.state_ref(0, "nope");
    }

    #[test]
    fn validate_rejects_bad_addressing() {
        let mut spec = THREE_PHASE.spec(3);
        // Make slave 1 read a message addressed to site 2.
        spec.sites[1].transitions[0].reads[0].dst = 2;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn validate_rejects_transition_out_of_final() {
        let mut spec = THREE_PHASE.spec(3);
        let c1 = spec.sites[0].state_index("c1");
        spec.sites[0].transitions.push(Transition {
            from: c1,
            to: 0,
            reads: vec![],
            writes: vec![],
            votes_yes: false,
        });
        assert!(spec.validate().is_err());
    }

    #[test]
    fn enabled_by_respects_multiplicity() {
        let m = Msg { kind: 0, src: 0, dst: 1 };
        let reads = |reads| Transition { from: 0, to: 1, reads, writes: vec![], votes_yes: false };
        assert!(reads(vec![m]).enabled_by(&[m]));
        assert!(!reads(vec![m, m]).enabled_by(&[m]));
    }

    #[test]
    fn decision_states() {
        let spec = THREE_PHASE.spec(3);
        assert_eq!(spec.sites[0].decision_state(Decision::Commit), spec.sites[0].state_index("c1"));
        assert_eq!(spec.sites[1].decision_state(Decision::Abort), spec.sites[1].state_index("a"));
    }

    #[test]
    fn augmentation_lookup() {
        let mut aug = Augmentation::default();
        aug.timeout.insert((Role::Slave, "w".into()), Decision::Abort);
        assert_eq!(aug.timeout_for(Role::Slave, "w"), Some(Decision::Abort));
        assert_eq!(aug.timeout_for(Role::Master, "w"), None);
        assert_eq!(aug.ud_for(Role::Slave, "w"), None);
    }

    #[test]
    fn display_renders_all_transitions() {
        let spec = THREE_PHASE.spec(3);
        let text = spec.to_string();
        assert!(text.contains("protocol 3PC"));
        assert!(text.contains("w1"));
        assert!(text.contains("prepare"));
    }
}
