//! The group directory: name → [`GroupId`] resolution with atomic
//! create-or-join, plus the tiny text protocol clients speak to it over
//! frames enveloped to [`GroupId::DIRECTORY`].
//!
//! # The create race
//!
//! Two clients concurrently `create foo` must converge on **one**
//! instance: the winner creates it, the loser's create resolves to a
//! join of the winner's group — never a duplicate shard entry. The
//! whole decision is one critical section over the directory lock
//! ([`Directory::create_or_join`]): a lookup-then-insert across two
//! lock acquisitions would reintroduce the TOCTOU window where both
//! callers miss and both insert. The regression is pinned in this
//! module's tests and exercised over real concurrent threads in
//! `tests/multigroup_chaos.rs`. The daemon's loops run verbs side by
//! side, so its winner also queues the group's `Create` inside that
//! section ([`Directory::create_or_join_with`]), raced in its own tests.
//!
//! # Wire protocol (control plane)
//!
//! Requests are UTF-8 [`vsgm_types::AppMsg`] payloads:
//! `create <name>` | `join <name>` | `lookup <name>` | `leave <name>`.
//! Responses: `ok <verb> <name> <gid>` or `err <reason> <name>`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use vsgm_net::tiered::Tiered;
use vsgm_types::GroupId;

/// Outcome of [`Directory::create_or_join`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirOutcome {
    /// The name was fresh; the caller owns creating the instance.
    Created(GroupId),
    /// The name existed (or a racing creator won); join this group.
    Joined(GroupId),
}

impl DirOutcome {
    /// The group id either way.
    pub fn gid(self) -> GroupId {
        match self {
            DirOutcome::Created(g) | DirOutcome::Joined(g) => g,
        }
    }
}

/// A parsed directory request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirRequest {
    /// `create <name>` — create-or-join by name.
    Create(String),
    /// `join <name>` — join an existing group.
    Join(String),
    /// `lookup <name>` — resolve a name without joining.
    Lookup(String),
    /// `leave <name>` — leave a group.
    Leave(String),
}

impl DirRequest {
    /// Parses a request line. Names are single whitespace-free tokens.
    pub fn parse(line: &str) -> Option<DirRequest> {
        let mut words = line.split_ascii_whitespace();
        let verb = words.next()?;
        let name = words.next()?;
        if words.next().is_some() || name.is_empty() {
            return None;
        }
        let name = name.to_string();
        match verb {
            "create" => Some(DirRequest::Create(name)),
            "join" => Some(DirRequest::Join(name)),
            "lookup" => Some(DirRequest::Lookup(name)),
            "leave" => Some(DirRequest::Leave(name)),
            _ => None,
        }
    }
}

struct DirInner {
    by_name: BTreeMap<String, GroupId>,
    /// Next fresh group id; starts at 1 (0 is [`GroupId::DIRECTORY`]).
    next_gid: u64,
}

/// The name service. All state lives behind one lock; see the module
/// docs for why create-or-join must be a single critical section.
pub struct Directory {
    /// Names and the next group id. A leaf: held only inside this
    /// module, across at most a fresh create's non-blocking hook; never
    /// across I/O or a lock.
    inner: Tiered<DirInner, 6>,
    creates: AtomicU64,
    joins: AtomicU64,
    lookups: AtomicU64,
    leaves: AtomicU64,
}

impl Default for Directory {
    fn default() -> Self {
        Directory::new()
    }
}

impl Directory {
    /// An empty directory; group ids are handed out from 1.
    pub fn new() -> Directory {
        Directory {
            inner: Tiered::new(DirInner { by_name: BTreeMap::new(), next_gid: 1 }),
            creates: AtomicU64::new(0),
            joins: AtomicU64::new(0),
            lookups: AtomicU64::new(0),
            leaves: AtomicU64::new(0),
        }
    }

    /// Atomically resolves `name` to a group, creating it if absent.
    /// Exactly one of any set of concurrent callers for the same fresh
    /// name observes [`DirOutcome::Created`]; every other caller
    /// observes [`DirOutcome::Joined`] with the same id. The check and
    /// the insert share one lock acquisition — the TOCTOU race fix this
    /// module pins.
    pub fn create_or_join(&self, name: &str) -> DirOutcome {
        self.create_or_join_with(name, |_| {})
    }

    /// [`Directory::create_or_join`], running `create(gid)` inside the
    /// critical section if the name is fresh: whoever resolves the name
    /// next, on any thread, does so after `create` returned. `create`
    /// must not block or take another lock.
    pub fn create_or_join_with(&self, name: &str, create: impl FnOnce(GroupId)) -> DirOutcome {
        let mut inner = self.inner.lock();
        if let Some(gid) = inner.by_name.get(name) {
            self.joins.fetch_add(1, Ordering::Relaxed);
            return DirOutcome::Joined(*gid);
        }
        let gid = GroupId::new(inner.next_gid);
        inner.next_gid += 1;
        inner.by_name.insert(name.to_string(), gid);
        self.creates.fetch_add(1, Ordering::Relaxed);
        create(gid);
        DirOutcome::Created(gid)
    }

    /// Resolves `name` for a client joining an existing group (the
    /// `join <name>` verb); an unknown name joins nothing and counts as no
    /// join.
    pub fn join(&self, name: &str) -> Option<GroupId> {
        self.resolve(name, &self.joins)
    }

    /// Resolves `name` without creating or joining.
    pub fn lookup(&self, name: &str) -> Option<GroupId> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        self.inner.lock().by_name.get(name).copied()
    }

    /// Resolves `name` for a client leaving its group (the `leave <name>`
    /// verb); an unknown name leaves nothing and counts as no leave.
    /// Membership itself is the group instance's concern; names stay
    /// resolvable so late frames still route.
    pub fn leave(&self, name: &str) -> Option<GroupId> {
        self.resolve(name, &self.leaves)
    }

    /// `name`'s group, counted on `counter` only if it resolves.
    fn resolve(&self, name: &str, counter: &AtomicU64) -> Option<GroupId> {
        let gid = self.inner.lock().by_name.get(name).copied();
        if gid.is_some() {
            counter.fetch_add(1, Ordering::Relaxed);
        }
        gid
    }

    /// Number of registered groups.
    pub fn len(&self) -> usize {
        self.inner.lock().by_name.len()
    }

    /// Whether no groups are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot: `(creates, joins, lookups, leaves)`.
    pub fn counters(&self) -> (u64, u64, u64, u64) {
        (
            self.creates.load(Ordering::Relaxed),
            self.joins.load(Ordering::Relaxed),
            self.lookups.load(Ordering::Relaxed),
            self.leaves.load(Ordering::Relaxed),
        )
    }

    /// Mirrors directory counters into an observability recorder.
    pub fn export_obs(&self, rec: &mut dyn vsgm_obs::Recorder) {
        use vsgm_obs::names;
        let (creates, joins, lookups, leaves) = self.counters();
        rec.counter(names::SERVER_DIR_CREATES, creates);
        rec.counter(names::SERVER_DIR_JOINS, joins);
        rec.counter(names::SERVER_DIR_LOOKUPS, lookups);
        rec.counter(names::SERVER_DIR_LEAVES, leaves);
    }
}

/// Formats a success response: `ok <verb> <name> <gid>`.
pub fn ok_response(verb: &str, name: &str, gid: GroupId) -> String {
    format!("ok {verb} {name} {}", gid.raw())
}

/// Formats an error response: `err <reason> <name>`.
pub fn err_response(reason: &str, name: &str) -> String {
    format!("err {reason} {name}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn create_then_join_then_lookup() {
        let d = Directory::new();
        let DirOutcome::Created(g1) = d.create_or_join("alpha") else {
            panic!("first create must create")
        };
        assert_eq!(g1, GroupId::new(1));
        assert_eq!(d.create_or_join("alpha"), DirOutcome::Joined(g1));
        assert_eq!(d.lookup("alpha"), Some(g1));
        assert_eq!(d.lookup("beta"), None);
        assert_eq!(d.join("beta"), None, "joining an unknown name joins nothing");
        let DirOutcome::Created(g2) = d.create_or_join("beta") else {
            panic!("fresh name must create")
        };
        assert!(g2 > g1, "ids are fresh and increasing");
        assert_eq!(d.join("beta"), Some(g2));
        assert_eq!(d.len(), 2);
        assert_eq!(d.leave("gamma"), None, "leaving an unknown name leaves nothing");
        assert_eq!(d.leave("beta"), Some(g2));
        assert_eq!(d.lookup("beta"), Some(g2), "a left name still resolves");
        let (creates, joins, lookups, leaves) = d.counters();
        assert_eq!((creates, joins, leaves), (2, 2, 1));
        assert_eq!(lookups, 3, "a join or a leave is not a lookup");
    }

    /// Pinned regression for the concurrent-create race: many threads
    /// race `create` on the same name; exactly one must observe
    /// `Created` and every loser must join the winner's id. With the
    /// old lookup-then-insert across two lock acquisitions, several
    /// threads could miss the lookup and each insert a fresh id —
    /// duplicate shard entries for one name.
    #[test]
    fn concurrent_create_converges_on_one_instance() {
        for round in 0..50 {
            let d = Arc::new(Directory::new());
            let threads = 8;
            let barrier = Arc::new(std::sync::Barrier::new(threads));
            let outcomes: Vec<DirOutcome> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        let d = Arc::clone(&d);
                        let barrier = Arc::clone(&barrier);
                        s.spawn(move || {
                            barrier.wait();
                            d.create_or_join("contested")
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("no panic")).collect()
            });
            let created: Vec<GroupId> = outcomes
                .iter()
                .filter_map(|o| match o {
                    DirOutcome::Created(g) => Some(*g),
                    DirOutcome::Joined(_) => None,
                })
                .collect();
            assert_eq!(created.len(), 1, "round {round}: exactly one winner, got {outcomes:?}");
            let winner = created.first().copied().expect("one winner");
            for o in &outcomes {
                assert_eq!(o.gid(), winner, "round {round}: loser joined a different instance");
            }
            assert_eq!(d.len(), 1, "round {round}: duplicate directory entries");
            let (creates, joins, _, _) = d.counters();
            assert_eq!((creates, joins), (1, threads as u64 - 1));
        }
    }

    #[test]
    fn request_parsing_is_strict() {
        assert_eq!(DirRequest::parse("create foo"), Some(DirRequest::Create("foo".into())));
        assert_eq!(DirRequest::parse("join a-b"), Some(DirRequest::Join("a-b".into())));
        assert_eq!(DirRequest::parse("lookup x"), Some(DirRequest::Lookup("x".into())));
        assert_eq!(DirRequest::parse("leave x"), Some(DirRequest::Leave("x".into())));
        assert_eq!(DirRequest::parse("  join \t spaced  "), Some(DirRequest::Join("spaced".into())));
        assert_eq!(DirRequest::parse("create"), None, "missing name");
        assert_eq!(DirRequest::parse("create a b"), None, "trailing token");
        assert_eq!(DirRequest::parse("destroy x"), None, "unknown verb");
        assert_eq!(DirRequest::parse(""), None);
    }

    #[test]
    fn response_forms() {
        assert_eq!(ok_response("create", "foo", GroupId::new(3)), "ok create foo 3");
        assert_eq!(err_response("unknown-group", "bar"), "err unknown-group bar");
    }
}
