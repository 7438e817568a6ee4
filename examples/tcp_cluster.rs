//! Three GCS end-points over real TCP sockets on localhost.
//!
//! ```text
//! cargo run --example tcp_cluster
//! ```
//!
//! This is the "production" shape of the stack: each process wraps an
//! [`vsgm_core::Endpoint`] in a [`vsgm_server::Node`] over a
//! [`vsgm_net::TcpTransport`] and pumps it on its own thread (`Node`
//! lives in `vsgm-server`, beside the daemon's `GroupInstance`; the
//! protocol crate `vsgm-core` has no sockets). The
//! membership notifications are scripted here (one `start_change`
//! followed by the view) — in a deployment they come from membership
//! servers (see `vsgm-membership`).

use std::sync::mpsc;
use std::time::{Duration, Instant};
use vsgm_core::{Config, Endpoint, Input};
use vsgm_net::TcpTransport;
use vsgm_server::{AppEvent, Node};
use vsgm_types::{AppMsg, ProcSet, ProcessId, StartChangeId, View, ViewId};

fn main() -> std::io::Result<()> {
    let ids: Vec<ProcessId> = (1..=3).map(ProcessId::new).collect();
    let members: ProcSet = ids.iter().copied().collect();

    // Bind everyone, then exchange addresses.
    let transports: Vec<TcpTransport> =
        ids.iter().map(|&p| TcpTransport::bind(p, "127.0.0.1:0").expect("bind")).collect();
    let addrs: Vec<_> = transports.iter().map(|t| t.local_addr()).collect();
    for t in &transports {
        for (&p, &addr) in ids.iter().zip(&addrs) {
            if p != t.me() {
                t.register_peer(p, addr);
            }
        }
    }

    // The scripted membership: cid=1 for everyone, then the 3-member view.
    let view = View::new(
        ViewId::new(1, 0),
        members.iter().copied(),
        members.iter().map(|&m| (m, StartChangeId::new(1))),
    );

    let (tx, rx) = mpsc::channel::<String>();
    let mut handles = Vec::new();
    for t in transports {
        let me = t.me();
        let members = members.clone();
        let view = view.clone();
        let tx = tx.clone();
        handles.push(std::thread::spawn(move || -> std::io::Result<()> {
            let mut node = Node::new(Endpoint::new(me, Config::default()), t);
            let mut events = Vec::new();
            events.extend(node.membership(Input::StartChange {
                cid: StartChangeId::new(1),
                set: members.clone(),
            })?);
            events.extend(node.membership(Input::MbrshpView(view))?);

            // Pump until the view installs, then multicast a greeting and
            // keep pumping until all three greetings arrive.
            let deadline = Instant::now() + Duration::from_secs(10);
            let mut sent = false;
            let mut greetings = 0;
            while Instant::now() < deadline {
                for e in events.drain(..) {
                    match e {
                        AppEvent::View { view, transitional } => {
                            tx.send(format!("{me}: installed {view} T={transitional:?}")).ok();
                            if !sent {
                                sent = true;
                            }
                        }
                        AppEvent::Delivered { from, msg } => {
                            greetings += 1;
                            tx.send(format!("{me}: got {msg:?} from {from}")).ok();
                        }
                    }
                }
                if sent {
                    sent = false;
                    events.extend(node.send(AppMsg::from(format!("hello from {me}").as_str()))?);
                }
                if greetings >= 3 {
                    let s = node.transport().stats();
                    tx.send(format!(
                        "{me}: net writer stats — {} flushes / {} frames (max {} coalesced)",
                        s.flushes, s.frames_flushed, s.coalesce_max
                    ))
                    .ok();
                    return Ok(());
                }
                events.extend(node.pump(Duration::from_millis(10))?);
            }
            panic!("{me}: timed out waiting for greetings");
        }));
    }
    drop(tx);

    for line in rx {
        println!("{line}");
    }
    for h in handles {
        h.join().expect("thread panicked")?;
    }
    println!("tcp cluster example complete ✓");
    Ok(())
}
