//! Model-checked interleavings of the threaded executor's inject-clock
//! handoff (`threaded.rs`): a producer stamps each event's inject time,
//! pushes it over a channel-like queue, and sets a done flag; the consumer
//! drains and must observe every stamp.
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"` (the `loom` CI lane in
//! `scripts/ci.sh`, which also runs the model of the executor's own drain
//! barrier, a unit test of `threaded.rs`); the vendored `loom` explores
//! every schedule of the model, so a pass means no interleaving loses an
//! event or its stamp.
#![cfg(loom)]

use loom::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use loom::sync::Mutex;
use loom::thread;
use std::collections::VecDeque;
use std::sync::Arc;

/// The producer publishes each event's inject timestamp *before* pushing
/// its sequence number and *before* raising `done`; under acquire loads the
/// consumer must observe every stamp of every popped event, and draining
/// after observing `done` must find all events.
#[test]
fn inject_clock_visible_at_sink() {
    loom::model(|| {
        const EVENTS: usize = 2;
        let inject_ns: Arc<Vec<AtomicU64>> =
            Arc::new((0..EVENTS).map(|_| AtomicU64::new(0)).collect());
        let queue: Arc<Mutex<VecDeque<usize>>> = Arc::new(Mutex::new(VecDeque::new()));
        let done = Arc::new(AtomicBool::new(false));
        let watermark = Arc::new(AtomicU64::new(0));

        let producer = {
            let (inject_ns, queue, done) = (inject_ns.clone(), queue.clone(), done.clone());
            thread::spawn(move || {
                for seq in 0..EVENTS {
                    // Stamp, then publish: the store must happen-before the
                    // push that makes `seq` visible.
                    inject_ns[seq].store((seq as u64 + 1) * 100, Ordering::Release);
                    queue.lock().unwrap().push_back(seq);
                }
                done.store(true, Ordering::Release);
            })
        };

        let consumer = {
            let (inject_ns, queue, done, watermark) = (
                inject_ns.clone(),
                queue.clone(),
                done.clone(),
                watermark.clone(),
            );
            thread::spawn(move || {
                let mut seen = 0usize;
                loop {
                    let popped = queue.lock().unwrap().pop_front();
                    if let Some(seq) = popped {
                        let stamp = inject_ns[seq].load(Ordering::Acquire);
                        assert_eq!(
                            stamp,
                            (seq as u64 + 1) * 100,
                            "inject stamp of event {seq} not visible at the sink"
                        );
                        watermark.fetch_max(stamp, Ordering::AcqRel);
                        seen += 1;
                        continue;
                    }
                    if done.load(Ordering::Acquire) {
                        // Re-drain after the done flag: events pushed before
                        // `done` was raised must still be in the queue.
                        if let Some(seq) = queue.lock().unwrap().pop_front() {
                            let stamp = inject_ns[seq].load(Ordering::Acquire);
                            watermark.fetch_max(stamp, Ordering::AcqRel);
                            seen += 1;
                            continue;
                        }
                        break;
                    }
                    thread::yield_now();
                }
                seen
            })
        };

        producer.join().unwrap();
        let seen = consumer.join().unwrap();
        assert_eq!(seen, EVENTS, "consumer lost events");
        assert_eq!(
            watermark.load(Ordering::Acquire),
            EVENTS as u64 * 100,
            "watermark did not reach the last inject stamp"
        );
    });
}
