//! FSA specifications of every commit protocol the paper discusses, each
//! generated from one [`ProtocolShape`].
//!
//! A master–slave commit protocol is a list of request/reply rounds — the
//! master broadcasts a request and collects one reply from every slave —
//! then the decision. The first round is the vote (`xact/yes`; a slave may
//! answer `no`). After the last round's replies the master broadcasts
//! `commit`; a `no` makes it broadcast `abort` instead. The same value the
//! model generates an FSA from ([`ProtocolShape::spec`]) is the one
//! `ptp-protocols`' termination engine runs.
//!
//! * [`TWO_PHASE`] — Fig. 1, the plain two-phase commit protocol.
//! * [`EXTENDED_TWO_PHASE`] — the base of Fig. 2: 2PC with a decision-ack
//!   phase (the master's `p1` "prepare" state the Sec. 3 observation refers
//!   to). Its timeout/UD augmentation is *derived*, not hard-coded: apply
//!   [`crate::rules::derive_rules_augmentation`] to the two-site instance,
//!   as Skeen & Stonebraker's rules prescribe.
//! * [`THREE_PHASE`] — Fig. 3, Skeen's three-phase commit. Master:
//!   `q1 → w1 → p1 → c1` (with `w1 → a1` on any no-vote); slaves:
//!   `q → w → p → c` / `q → a` / `w → a`.
//! * [`MODIFIED_THREE_PHASE`] — Fig. 8: 3PC plus the slave `w --commit--> c`
//!   transition the termination protocol needs (Sec. 5.3, "a fly in the
//!   ointment").
//! * [`FOUR_PHASE`] — 3PC with a `ready/ack2` round before the decision,
//!   satisfying the Lemma 1/2 conditions; it exercises Theorem 10's generic
//!   termination-protocol recipe on something that is not 3PC.
//!
//! Site 0 is the master throughout (the paper's site 1); sites `1..n-1` are
//! slaves (the paper's sites 2..n).

use crate::fsa::{Msg, ProtocolSpec, SiteSpec, StateDef, StateKind, Transition};

/// One request/reply round of a master–slave commit protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Round {
    /// The master's broadcast for this round.
    pub request: &'static str,
    /// The slaves' reply.
    pub reply: &'static str,
}

/// A master–slave commit protocol, described once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtocolShape {
    /// Protocol name (the spec's name).
    pub name: &'static str,
    /// The request/reply rounds in order, the vote first.
    pub rounds: &'static [Round],
    /// Whether the master waits for the slaves' `ack` of the commit before
    /// it commits itself (E2PC).
    pub decision_ack: bool,
    /// Whether a slave accepts `commit` in every wait state, not only after
    /// the last round (Fig. 8).
    pub early_commit: bool,
}

/// Wait-state names `(master, slave)`: the master collects round `k`'s
/// replies in `WAITS[k].0` (E2PC's decision acks in the state after the
/// last round's); a slave that answered round `k` waits in `WAITS[k].1`.
const WAITS: [(&str, &str); 3] = [("w1", "w"), ("p1", "p"), ("r1", "r")];

const VOTE: Round = Round { request: "xact", reply: "yes" };
const PREPARE: Round = Round { request: "prepare", reply: "ack" };
const READY: Round = Round { request: "ready", reply: "ack2" };

/// Fig. 1: the two-phase commit protocol.
pub const TWO_PHASE: ProtocolShape =
    ProtocolShape { name: "2PC", rounds: &[VOTE], decision_ack: false, early_commit: false };

/// The base protocol of Fig. 2: two-phase commit with a decision-ack phase.
/// The master commits the slaves from `w1`, then waits in `p1` for their
/// acks. Timeout/UD transitions are *not* part of this spec — derive them
/// with [`crate::rules::derive_rules_augmentation`] on the two-site instance.
pub const EXTENDED_TWO_PHASE: ProtocolShape =
    ProtocolShape { name: "E2PC", rounds: &[VOTE], decision_ack: true, early_commit: false };

/// Fig. 3: Skeen's three-phase commit protocol.
pub const THREE_PHASE: ProtocolShape = ProtocolShape {
    name: "3PC",
    rounds: &[VOTE, PREPARE],
    decision_ack: false,
    early_commit: false,
};

/// Fig. 8: the modified three-phase commit protocol (3PC plus the slave
/// `w --commit--> c` transition) — the paper's protocol.
pub const MODIFIED_THREE_PHASE: ProtocolShape =
    ProtocolShape { name: "M3PC", early_commit: true, ..THREE_PHASE };

/// A four-phase protocol: 3PC with a `ready/ack2` round between `prepare`
/// and `commit`, slaves accepting an early commit in `w` and `p` (the
/// four-phase analogue of Fig. 8). It satisfies the Theorem 10 conditions
/// (no state with both a commit and an abort concurrent; no noncommittable
/// state with a commit concurrent), `prepare` being the decisive message.
pub const FOUR_PHASE: ProtocolShape = ProtocolShape {
    name: "4PC",
    rounds: &[VOTE, PREPARE, READY],
    decision_ack: false,
    early_commit: true,
};

impl ProtocolShape {
    /// The round whose request is `kind`.
    pub fn round_of_request(&self, kind: &str) -> Option<usize> {
        self.rounds.iter().position(|r| r.request == kind)
    }

    /// The round whose reply is `kind`.
    pub fn round_of_reply(&self, kind: &str) -> Option<usize> {
        self.rounds.iter().position(|r| r.reply == kind)
    }

    /// The master's state while it collects round `k`'s replies.
    pub fn master_wait(&self, k: usize) -> &'static str {
        WAITS[k].0
    }

    /// A slave's state once it answered round `k`.
    pub fn slave_wait(&self, k: usize) -> &'static str {
        WAITS[k].1
    }

    /// The protocol's FSA for `n` sites.
    pub fn spec(&self, n: usize) -> ProtocolSpec {
        assert!(n >= 2, "need a master and at least one slave");
        let rounds = self.rounds.len();
        let waits = rounds + usize::from(self.decision_ack);
        assert!(waits <= WAITS.len(), "{}: more wait states than names", self.name);
        assert!(
            !self.decision_ack || self.round_of_reply("ack").is_none(),
            "{}: `ack` is both a round's reply and the decision ack",
            self.name
        );

        let vote = self.rounds[0];
        let mut kinds = vec![vote.request, vote.reply, "no"];
        kinds.extend(self.rounds[1..].iter().flat_map(|r| [r.request, r.reply]));
        kinds.extend(["commit", "abort"]);
        if self.decision_ack {
            kinds.push("ack");
        }
        let m = |kind: &str, src: usize, dst: usize| Msg {
            kind: kinds.iter().position(|k| *k == kind).expect("declared kind") as u8,
            src: src as u8,
            dst: dst as u8,
        };
        let to_slaves = |kind, skip| (1..n).filter(|j| *j != skip).map(|j| m(kind, 0, j)).collect();
        let from_slaves = |kind| (1..n).map(|j| m(kind, j, 0)).collect();
        let step =
            |from, to, reads, writes| Transition { from, to, reads, writes, votes_yes: false };

        // Master: q1, one wait per round (and one for the decision acks),
        // c1, a1. Collecting the yes votes is its own yes-vote.
        let (c1, a1) = (waits + 1, waits + 2);
        let mut master = vec![step(0, 1, vec![], to_slaves(vote.request, 0))];
        for (k, round) in self.rounds.iter().enumerate() {
            let next = self.rounds.get(k + 1).map_or("commit", |r| r.request);
            let collect = step(k + 1, k + 2, from_slaves(round.reply), to_slaves(next, 0));
            master.push(Transition { votes_yes: k == 0, ..collect });
        }
        if self.decision_ack {
            master.push(step(waits, c1, from_slaves("ack"), vec![]));
        }
        master.extend((1..n).map(|j| step(1, a1, vec![m("no", j, 0)], to_slaves("abort", j))));
        let mut sites = vec![SiteSpec {
            states: states(["q1", "c1", "a1"], WAITS[..waits].iter().map(|w| w.0)),
            transitions: master,
        }];

        // Slave i: q, one wait per round answered, c, a.
        let (c, a) = (rounds + 1, rounds + 2);
        for i in 1..n {
            let asked = || vec![m(vote.request, 0, i)];
            let mut t = vec![
                Transition { votes_yes: true, ..step(0, 1, asked(), vec![m(vote.reply, i, 0)]) },
                step(0, a, asked(), vec![m("no", i, 0)]),
            ];
            for k in 1..=rounds {
                let (read, reply) = match self.rounds.get(k) {
                    Some(round) => (round.request, Some(round.reply)),
                    None => ("commit", self.decision_ack.then_some("ack")),
                };
                let reply = reply.map(|kind| m(kind, i, 0)).into_iter().collect();
                t.push(step(k, k + 1, vec![m(read, 0, i)], reply));
                // `w --abort--> a` right after the first way out of `w`:
                // spec order is the interpreter's tie-break.
                if k == 1 {
                    t.push(step(1, a, vec![m("abort", 0, i)], vec![]));
                }
            }
            if self.early_commit {
                t.extend((1..rounds).map(|from| step(from, c, vec![m("commit", 0, i)], vec![])));
            }
            let slave_waits = WAITS[..rounds].iter().map(|w| w.1);
            sites.push(SiteSpec { states: states(["q", "c", "a"], slave_waits), transitions: t });
        }

        ProtocolSpec { name: self.name.into(), sites, kinds }
    }
}

/// The state table `initial, waits…, commit, abort`.
fn states<'a>(
    [initial, commit, abort]: [&str; 3],
    waits: impl Iterator<Item = &'a str>,
) -> Vec<StateDef> {
    let def = |name: &str, kind| StateDef { name: name.to_owned(), kind };
    let mut table = vec![def(initial, StateKind::Initial)];
    table.extend(waits.map(|name| def(name, StateKind::Intermediate)));
    table.extend([def(commit, StateKind::Commit), def(abort, StateKind::Abort)]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every shape the repository names, in the digest table's order.
    const SHAPES: [ProtocolShape; 5] =
        [TWO_PHASE, EXTENDED_TWO_PHASE, THREE_PHASE, MODIFIED_THREE_PHASE, FOUR_PHASE];

    fn fnv1a(text: &str) -> u64 {
        text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, b| {
            (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// FNV-1a of each shape's `{:?}` spec at n = 2..=8, computed from the
    /// hand-expanded builders the generator replaced: every state name,
    /// kind-table entry and transition in the same order.
    const DIGESTS: [[u64; 7]; 5] = [
        [
            0x0e8f77c95645ad34,
            0xc3a4abc5351c3ade,
            0xefadcb68d7460406,
            0x535e059f370a4b7b,
            0x8662c439f8cdbadc,
            0xda45f776868f0706,
            0xb5e7f9591559bf6e,
        ],
        [
            0x8bdff8fa2a02517a,
            0x88ac3472d3bc76dd,
            0x7fb089b923c7d400,
            0xc1fefd8d0f9787ee,
            0x5f63516d67f7ce22,
            0x229d763243534cd1,
            0x336c114991f963a4,
        ],
        [
            0x51851fb3b52c48d3,
            0x1de23038bfa0aa4c,
            0x72df115bed802937,
            0x372f6f0dc513b423,
            0x2d20d5dc78cc6a23,
            0x14f80eb6eb68d154,
            0x1784957bea038d37,
        ],
        [
            0x2016c5e57af13ee1,
            0x9e77479bdfb611cc,
            0x5372e1ffbcc2c5fc,
            0x8e6b47f69ea69114,
            0x14989773838afaad,
            0x31548522b8420338,
            0xc336468cadca50a8,
        ],
        [
            0xc9bc27733c0edba3,
            0xc332366f3ab8cf24,
            0x5463f2eb509a7da5,
            0x8498759020cbcb1f,
            0x89083e27e63210e3,
            0x947daa4e826bd3dc,
            0x8866fac677f63335,
        ],
    ];

    #[test]
    fn generated_specs_match_the_pinned_digests() {
        for (shape, digests) in SHAPES.iter().zip(DIGESTS) {
            for (n, want) in (2..=8).zip(digests) {
                let got = fnv1a(&format!("{:?}", shape.spec(n)));
                assert_eq!(got, want, "{} n={n}: {got:#018x}", shape.name);
            }
        }
    }

    #[test]
    fn all_specs_validate() {
        for shape in SHAPES {
            for n in 2..=5 {
                shape.spec(n).validate().unwrap();
            }
        }
    }

    #[test]
    fn two_phase_shape() {
        let p = TWO_PHASE.spec(3);
        assert_eq!(p.sites[0].states.len(), 4);
        assert_eq!(p.sites[1].states.len(), 4);
        // master: start, commit, 2 abort transitions.
        assert_eq!(p.sites[0].transitions.len(), 4);
        // slave: yes, no, commit, abort.
        assert_eq!(p.sites[1].transitions.len(), 4);
    }

    #[test]
    fn modified_three_phase_adds_w_commit() {
        let p3 = THREE_PHASE.spec(3);
        let m3 = MODIFIED_THREE_PHASE.spec(3);
        assert_eq!(m3.sites[1].transitions.len(), p3.sites[1].transitions.len() + 1);
        // The extra transition goes from w (1) to c (3) reading a commit.
        let extra = m3.sites[1].transitions.last().unwrap();
        assert_eq!((extra.from, extra.to), (1, 3));
    }

    #[test]
    fn four_phase_has_ready_round() {
        let p = FOUR_PHASE.spec(3);
        assert!(p.kinds.contains(&"ready"));
        assert!(p.kinds.contains(&"ack2"));
        assert_eq!(p.sites[0].states.len(), 6);
        assert_eq!(p.sites[1].states.len(), 6);
    }

    #[test]
    fn three_phase_has_prepare_round() {
        let p = THREE_PHASE.spec(3);
        assert!(p.kinds.contains(&"prepare"));
        assert!(p.kinds.contains(&"ack"));
        assert_eq!(p.sites[0].states.len(), 5);
    }

    #[test]
    fn slaves_are_symmetric() {
        let p = THREE_PHASE.spec(4);
        for i in 2..4 {
            assert_eq!(p.sites[1].states.len(), p.sites[i].states.len());
            assert_eq!(p.sites[1].transitions.len(), p.sites[i].transitions.len());
        }
    }

    #[test]
    fn wait_names_are_the_spec_states() {
        for shape in [MODIFIED_THREE_PHASE, FOUR_PHASE] {
            let spec = shape.spec(3);
            for k in 0..shape.rounds.len() {
                spec.sites[0].state_index(shape.master_wait(k));
                spec.sites[1].state_index(shape.slave_wait(k));
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one slave")]
    fn single_site_rejected() {
        TWO_PHASE.spec(1);
    }

    #[test]
    fn vote_marking() {
        // Exactly one voting transition per site.
        for site in &THREE_PHASE.spec(3).sites {
            assert_eq!(site.transitions.iter().filter(|t| t.votes_yes).count(), 1);
        }
    }
}
