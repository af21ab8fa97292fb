//! The per-site thread: drives one [`Participant`] with real messages and
//! real timers.

use crate::router::{Inbound, LiveConfig, Outbound};
use crate::timers::Timers;
use ptp_model::Decision;
use ptp_protocols::api::{Action, CommitMsg, Participant, TimerTag};
use ptp_simnet::SiteId;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

pub(crate) struct SiteRunner<P: Participant> {
    me: SiteId,
    n: usize,
    participant: P,
    inbox: Receiver<Inbound<CommitMsg>>,
    router: Sender<Outbound<CommitMsg>>,
    done: Sender<(SiteId, Decision)>,
    config: LiveConfig,
    /// The zero point of the timer deadlines: when the runner was built.
    started: Instant,
    timers: Timers<TimerTag>,
    decided: Option<Decision>,
    /// Down right now: ignore traffic, discard due timers (the router
    /// drops this site's messages too — see `Router::run`).
    crashed: bool,
}

impl<P: Participant> SiteRunner<P> {
    pub(crate) fn new(
        me: SiteId,
        n: usize,
        participant: P,
        inbox: Receiver<Inbound<CommitMsg>>,
        router: Sender<Outbound<CommitMsg>>,
        done: Sender<(SiteId, Decision)>,
        config: LiveConfig,
    ) -> SiteRunner<P> {
        SiteRunner {
            me,
            n,
            participant,
            inbox,
            router,
            done,
            config,
            started: Instant::now(),
            timers: Timers::default(),
            decided: None,
            crashed: false,
        }
    }

    /// Nanoseconds since the runner was built.
    fn now(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    fn apply(&mut self, actions: Vec<Action>) {
        for action in actions {
            match action {
                Action::Send { to, msg } => {
                    let _ = self.router.send(Outbound { src: self.me, dst: to, msg });
                }
                Action::Broadcast { msg } => {
                    for dst in (0..self.n as u16).map(SiteId) {
                        if dst != self.me {
                            let _ = self.router.send(Outbound { src: self.me, dst, msg });
                        }
                    }
                }
                Action::SetTimer { t_units, tag } => {
                    let after = self.config.t.as_nanos() as u64 * t_units;
                    self.timers.set(tag, self.now() + after);
                }
                Action::CancelTimer { tag } => self.timers.cancel(tag),
                Action::Decide(decision) => {
                    if self.decided.is_none() {
                        self.decided = Some(decision);
                        let _ = self.done.send((self.me, decision));
                    }
                }
                Action::Note(..) => {}
            }
        }
    }

    /// Fires the timers due at `now`, earliest first. While crashed, due
    /// timers are discarded unfired — the simulator's suppression.
    fn fire_due_timers(&mut self, now: u64) {
        while let Some(tag) = self.timers.pop_due(now) {
            if !self.crashed {
                let mut actions = Vec::new();
                self.participant.on_timer(tag, &mut actions);
                self.apply(actions);
            }
        }
    }

    /// Runs until the inbox closes. Continues after deciding so peers can
    /// still be answered (e.g. quorum state requests).
    pub(crate) fn run(mut self) {
        let mut out = Vec::new();
        self.participant.start(&mut out);
        self.apply(out);

        loop {
            let now = self.now();
            self.fire_due_timers(now);
            let wake = self.timers.next_deadline().unwrap_or(now + 50_000_000);
            match self.inbox.recv_timeout(Duration::from_nanos(wake.saturating_sub(now))) {
                Ok(Inbound::Deliver { src, msg }) if !self.crashed => {
                    let mut actions = Vec::new();
                    self.participant.on_msg(src, &msg, &mut actions);
                    self.apply(actions);
                }
                Ok(Inbound::Undeliverable { original_dst, msg }) if !self.crashed => {
                    let mut actions = Vec::new();
                    self.participant.on_ud(original_dst, &msg, &mut actions);
                    self.apply(actions);
                }
                Ok(Inbound::Crash) => self.crashed = true,
                Ok(Inbound::Recover) => self.crashed = false,
                Ok(Inbound::Shutdown) | Err(RecvTimeoutError::Disconnected) => return,
                Ok(_) | Err(RecvTimeoutError::Timeout) => {}
            }
        }
    }
}
