//! The output checker: judges, from the frames the clients received and
//! nothing else, that the daemon gave virtually synchronous FIFO multicast.
//!
//! Per group it checks, as frames arrive:
//! * every view a member installs includes it and has a higher id than the
//!   last;
//! * every delivery arrives in the receiver's current view, from a member
//!   of that view, with every payload byte as generated;
//! * per (receiver, origin): the daemon's running `Fwd` index has no gap or
//!   duplicate (no frame lost or repeated on the way), sequence numbers
//!   only rise (no duplicate, no reordering), and within one view they are
//!   consecutive (no gap while both are members);
//! * self-delivery: a sender sees its own multicasts with no gap at all.
//!
//! and when the run has drained:
//! * virtual synchrony, seen from outside: any two members that installed
//!   the same two consecutive views (or ended the run in the same view)
//!   delivered the same message set between them;
//! * every multicast a member sent came back to it.

use crate::gen;
use crate::plan::CLIENTS;
use std::collections::BTreeMap;
use vsgm_types::ViewId;

/// Violations kept verbatim; the rest are only counted.
const KEPT: usize = 20;

/// First and last sequence number delivered from each origin in one view.
type Ranges = [Option<(u64, u64)>; CLIENTS];
/// A view and the one installed after it (`None` at the end of the run).
type Transition = (ViewId, Option<ViewId>);

struct Epoch {
    view: ViewId,
    members: Vec<usize>,
    delivered: Ranges,
}

#[derive(Default)]
struct Receiver {
    epochs: Vec<Epoch>,
    last_index: [u64; CLIENTS],
    last_seq: [u64; CLIENTS],
}

pub struct Checker {
    seed: u64,
    payload_len: usize,
    /// Per group index, per client index.
    groups: Vec<[Receiver; CLIENTS]>,
    violations: Vec<String>,
    violation_count: u64,
}

/// One `Fwd` frame as a client received it.
pub struct Delivery<'a> {
    pub group: usize,
    pub receiver: usize,
    pub origin: usize,
    pub view: ViewId,
    pub index: u64,
    pub payload: &'a [u8],
}

impl Checker {
    pub fn new(seed: u64, groups: usize, payload_len: usize) -> Checker {
        Checker {
            seed,
            payload_len,
            groups: (0..groups).map(|_| Default::default()).collect(),
            violations: Vec::new(),
            violation_count: 0,
        }
    }

    fn violate(&mut self, msg: String) {
        self.violation_count += 1;
        if self.violations.len() < KEPT {
            self.violations.push(msg);
        }
    }

    pub fn violation_count(&self) -> u64 {
        self.violation_count
    }

    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// `receiver` installed `view` in `group`.
    pub fn on_view(&mut self, group: usize, receiver: usize, view: ViewId, members: Vec<usize>) {
        if !members.contains(&receiver) {
            self.violate(format!(
                "g{group} c{receiver}: installed {view} without being in it"
            ));
        }
        if let Some(prev) = self.groups[group][receiver].epochs.last() {
            if view <= prev.view {
                let prev = prev.view;
                self.violate(format!("g{group} c{receiver}: view {view} after {prev}"));
            }
        }
        self.groups[group][receiver].epochs.push(Epoch {
            view,
            members,
            delivered: [None; CLIENTS],
        });
    }

    /// Returns the multicast id and sequence number carried by the payload
    /// when the frame is well-formed enough to account for.
    pub fn on_delivery(&mut self, d: &Delivery<'_>) -> Option<(u64, u64)> {
        // Runs for every frame received: nothing is formatted or allocated
        // unless something is wrong.
        let mut found: Vec<String> = Vec::new();
        let parsed = gen::parse_header(d.payload);
        if parsed.is_none() {
            found.push("payload too short for a header".into());
        } else if !gen::payload_intact(self.seed, d.payload, self.payload_len) {
            found.push("payload differs from what was sent".into());
        }
        if let Some((_, seq)) = parsed {
            let r = &mut self.groups[d.group][d.receiver];
            let (last_index, last_seq) = (r.last_index[d.origin], r.last_seq[d.origin]);
            if d.index != last_index + 1 {
                found.push(format!("frame index {} after {last_index}", d.index));
            }
            r.last_index[d.origin] = d.index;
            if seq <= last_seq {
                found.push(format!(
                    "seq {seq} after {last_seq} (duplicate or reordered)"
                ));
            } else if d.receiver == d.origin && seq != last_seq + 1 {
                found.push(format!(
                    "own seq {seq} after {last_seq} (self-delivery gap)"
                ));
            }
            r.last_seq[d.origin] = last_seq.max(seq);
            match r.epochs.last_mut() {
                None => found.push("delivery before any view".into()),
                Some(e) => {
                    if e.view != d.view {
                        found.push(format!("delivered in {} while in {}", d.view, e.view));
                    }
                    if !e.members.contains(&d.origin) {
                        found.push(format!("origin is not in view {}", e.view));
                    }
                    match &mut e.delivered[d.origin] {
                        Some((_, last)) => {
                            if seq != *last + 1 {
                                found
                                    .push(format!("seq {seq} after {last} within view {}", e.view));
                            }
                            *last = seq;
                        }
                        slot @ None => *slot = Some((seq, seq)),
                    }
                }
            }
        }
        for v in found {
            self.violate(format!(
                "g{} c{} from c{}: {v}",
                d.group, d.receiver, d.origin
            ));
        }
        parsed
    }

    /// End-of-run checks, once everything in flight has drained. `sent`
    /// gives the number of multicasts each (group, client) sent.
    pub fn finish(&mut self, sent: impl Fn(usize, usize) -> u64) {
        let mut found = Vec::new();
        for (g, receivers) in self.groups.iter().enumerate() {
            // Who made each transition, and what they delivered before it.
            let mut together: BTreeMap<Transition, Vec<(usize, Ranges)>> = BTreeMap::new();
            for (c, r) in receivers.iter().enumerate() {
                for (i, e) in r.epochs.iter().enumerate() {
                    let next = r.epochs.get(i + 1).map(|n| n.view);
                    together
                        .entry((e.view, next))
                        .or_default()
                        .push((c, e.delivered));
                }
                if r.last_seq[c] != sent(g, c) {
                    found.push(format!(
                        "g{g} c{c}: sent {} multicasts, saw its own up to {}",
                        sent(g, c),
                        r.last_seq[c]
                    ));
                }
            }
            for ((view, next), who) in together {
                let Some(((c0, first), rest)) = who.split_first() else {
                    continue;
                };
                for (c, delivered) in rest {
                    if delivered != first {
                        found.push(format!(
                            "g{g}: c{c0} and c{c} both moved from {view} to {next:?} \
                             but delivered {first:?} and {delivered:?}"
                        ));
                    }
                }
            }
        }
        for v in found {
            self.violate(v);
        }
    }
}

/// Checks a directory reply against its request (`<verb> <name>`): the
/// daemon must answer `ok <verb> <name> <gid>`, where a `create` of an
/// existing name is answered as a `join`. Returns the gid.
pub fn check_dir_reply(request: &str, reply: &str) -> Result<u64, String> {
    let bad = || format!("directory request {request:?} answered {reply:?}");
    let (verb, name) = request.split_once(' ').ok_or_else(bad)?;
    let mut words = reply.split(' ');
    let ok = words.next() == Some("ok");
    let verb_ok = words
        .next()
        .is_some_and(|v| v == verb || (verb == "create" && v == "join"));
    let name_ok = words.next() == Some(name);
    let gid = words.next().and_then(|g| g.parse::<u64>().ok());
    match gid {
        Some(gid) if ok && verb_ok && name_ok && words.next().is_none() => Ok(gid),
        _ => Err(bad()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED: u64 = 11;
    const LEN: usize = 64;

    fn vid(epoch: u64) -> ViewId {
        ViewId::new(epoch, 1)
    }

    /// A scripted group: remembers each receiver's view and frame index so
    /// a test only states what is delivered.
    struct Script {
        c: Checker,
        view: [ViewId; CLIENTS],
        index: [[u64; CLIENTS]; CLIENTS],
    }

    impl Script {
        fn new() -> Script {
            Script {
                c: Checker::new(SEED, 1, LEN),
                view: [ViewId::ZERO; CLIENTS],
                index: [[0; CLIENTS]; CLIENTS],
            }
        }

        fn view(&mut self, epoch: u64, members: &[usize]) {
            for &m in members {
                self.view[m] = vid(epoch);
                self.c.on_view(0, m, vid(epoch), members.to_vec());
            }
        }

        fn deliver_raw(&mut self, to: usize, origin: usize, index: u64, payload: &[u8]) {
            let view = self.view[to];
            self.c.on_delivery(&Delivery {
                group: 0,
                receiver: to,
                origin,
                view,
                index,
                payload,
            });
        }

        fn deliver(&mut self, to: usize, origin: usize, seq: u64) {
            self.index[to][origin] += 1;
            let index = self.index[to][origin];
            let payload = gen::payload(SEED, 1000 * origin as u64 + seq, seq, LEN);
            self.deliver_raw(to, origin, index, &payload);
        }

        /// `origin` multicasts `seq` and all of `to` deliver it.
        fn mcast(&mut self, origin: usize, seq: u64, to: &[usize]) {
            for &r in to {
                self.deliver(r, origin, seq);
            }
        }

        fn finish(mut self, sent: &[u64; CLIENTS]) -> Vec<String> {
            self.c.finish(|_, c| sent[c]);
            self.c.violations().to_vec()
        }
    }

    fn assert_fails(violations: &[String], needle: &str) {
        assert!(
            violations.iter().any(|v| v.contains(needle)),
            "expected a violation containing {needle:?}, got {violations:?}"
        );
    }

    #[test]
    fn a_correct_run_with_a_leave_and_rejoin_passes() {
        let mut s = Script::new();
        s.view(1, &[0, 1, 2, 3]);
        s.mcast(0, 1, &[0, 1, 2, 3]);
        s.mcast(1, 1, &[0, 1, 2, 3]);
        s.view(2, &[0, 1, 2]); // c3 left
        s.mcast(0, 2, &[0, 1, 2]);
        s.mcast(0, 3, &[0, 1, 2]);
        s.view(3, &[0, 1, 2, 3]); // c3 is back, and missed seq 2 and 3 legally
        s.mcast(0, 4, &[0, 1, 2, 3]);
        s.mcast(2, 1, &[0, 1, 2, 3]);
        assert_eq!(s.finish(&[4, 1, 1, 0]), Vec::<String>::new());
    }

    #[test]
    fn reordered_delivery_fails() {
        let mut s = Script::new();
        s.view(1, &[0, 1]);
        s.mcast(0, 1, &[0]);
        s.mcast(0, 2, &[0]);
        s.deliver(1, 0, 2);
        s.deliver(1, 0, 1);
        assert_fails(&s.finish(&[2, 0, 0, 0]), "duplicate or reordered");
    }

    #[test]
    fn duplicated_delivery_fails() {
        let mut s = Script::new();
        s.view(1, &[0, 1]);
        s.mcast(0, 1, &[0, 1]);
        s.deliver(1, 0, 1);
        assert_fails(&s.finish(&[1, 0, 0, 0]), "duplicate or reordered");
    }

    #[test]
    fn a_duplicated_frame_fails_on_its_index_too() {
        let mut s = Script::new();
        s.view(1, &[0, 1]);
        s.mcast(0, 1, &[0, 1]);
        let again = gen::payload(SEED, 1, 1, LEN);
        s.deliver_raw(1, 0, 1, &again);
        assert_fails(&s.finish(&[1, 0, 0, 0]), "frame index 1 after 1");
    }

    #[test]
    fn dropped_delivery_inside_a_view_fails() {
        let mut s = Script::new();
        s.view(1, &[0, 1]);
        s.mcast(0, 1, &[0, 1]);
        s.mcast(0, 2, &[0]); // c1 never gets seq 2
        s.mcast(0, 3, &[0, 1]);
        assert_fails(&s.finish(&[3, 0, 0, 0]), "seq 3 after 1 within view");
    }

    #[test]
    fn dropped_frame_fails_on_the_daemon_index() {
        let mut s = Script::new();
        s.view(1, &[0, 1]);
        s.mcast(0, 1, &[0, 1]);
        s.index[1][0] += 1; // the daemon numbered a frame that never arrived
        s.mcast(0, 2, &[0, 1]);
        assert_fails(&s.finish(&[2, 0, 0, 0]), "frame index 3 after 1");
    }

    #[test]
    fn dropped_last_delivery_fails_at_the_end() {
        let mut s = Script::new();
        s.view(1, &[0, 1]);
        s.mcast(0, 1, &[0, 1]);
        s.mcast(0, 2, &[0]);
        assert_fails(&s.finish(&[2, 0, 0, 0]), "both moved from");
    }

    #[test]
    fn members_that_disagree_between_the_same_views_fail() {
        let mut s = Script::new();
        s.view(1, &[0, 1, 2]);
        s.mcast(0, 1, &[0, 1, 2]);
        s.mcast(0, 2, &[0, 1]); // c2 moves on without seq 2
        s.view(2, &[0, 1, 2]);
        s.mcast(0, 3, &[0, 1, 2]);
        let v = s.finish(&[3, 0, 0, 0]);
        assert_fails(&v, "both moved from v1.1 to Some");
        // The gap is legal FIFO-wise (it spans a view change) — only the
        // comparison between members exposes it.
        assert!(!v.iter().any(|m| m.contains("within view")), "{v:?}");
    }

    #[test]
    fn missing_self_delivery_fails() {
        let mut s = Script::new();
        s.view(1, &[0, 1]);
        s.mcast(0, 1, &[0, 1]);
        s.mcast(0, 2, &[1]);
        s.mcast(0, 3, &[0, 1]);
        assert_fails(&s.finish(&[3, 0, 0, 0]), "self-delivery gap");
        let mut s = Script::new();
        s.view(1, &[0, 1]);
        s.mcast(0, 1, &[0, 1]);
        assert_fails(
            &s.finish(&[2, 0, 0, 0]),
            "sent 2 multicasts, saw its own up to 1",
        );
    }

    #[test]
    fn corrupted_payload_fails() {
        let mut s = Script::new();
        s.view(1, &[0, 1]);
        let mut bytes = gen::payload(SEED, 5, 1, LEN);
        bytes[40] ^= 1;
        s.deliver_raw(1, 0, 1, &bytes);
        assert_fails(s.c.violations(), "differs from what was sent");
        s.deliver_raw(1, 0, 2, &[1, 2, 3]);
        assert_fails(s.c.violations(), "too short");
    }

    #[test]
    fn wrong_view_stamps_and_non_members_fail() {
        let mut s = Script::new();
        s.deliver(1, 0, 1);
        assert_fails(s.c.violations(), "before any view");
        let mut s = Script::new();
        s.view(1, &[0, 1]);
        s.deliver(1, 2, 1);
        assert_fails(s.c.violations(), "origin is not in view");
        s.view[1] = vid(9);
        s.deliver(1, 0, 1);
        assert_fails(s.c.violations(), "delivered in v9.1 while in v1.1");
        s.c.on_view(0, 1, vid(1), vec![0, 1]);
        assert_fails(s.c.violations(), "view v1.1 after v1.1");
        s.c.on_view(0, 3, vid(2), vec![0, 1]);
        assert_fails(s.c.violations(), "without being in it");
    }

    #[test]
    fn violations_are_counted_past_the_kept_ones() {
        let mut s = Script::new();
        for _ in 0..50 {
            s.deliver(1, 0, 1);
        }
        assert!(s.c.violation_count() >= 50);
        assert_eq!(s.c.violations().len(), KEPT);
    }

    #[test]
    fn directory_replies() {
        assert_eq!(check_dir_reply("create g7", "ok create g7 8"), Ok(8));
        assert_eq!(check_dir_reply("create g7", "ok join g7 8"), Ok(8));
        assert_eq!(check_dir_reply("leave g7", "ok leave g7 8"), Ok(8));
        for bad in [
            "err unknown-group g7",
            "ok leave g7 8",
            "ok join g8 8",
            "ok join g7",
            "ok join g7 x",
            "ok join g7 8 9",
        ] {
            assert!(check_dir_reply("join g7", bad).is_err(), "{bad}");
        }
    }
}
