//! Discrete-event simulation kernel shared by the Keddah simulators.
//!
//! Both the Hadoop cluster simulator (`keddah-hadoop`) and the flow-level
//! network simulator (`keddah-netsim`) are discrete-event simulations: a
//! virtual clock advances from event to event, and each event may schedule
//! further events. This crate provides the minimal, deterministic kernel
//! they share:
//!
//! * [`SimTime`] — a nanosecond-resolution virtual clock value (newtype over
//!   `u64` so wall-clock and simulated time can never be confused);
//! * [`EventQueue`] — a priority queue of `(SimTime, sequence, event)`
//!   entries with FIFO tie-breaking, which makes simulations byte-for-byte
//!   reproducible across runs. A [`ticket`](EventQueue::ticket) lets a
//!   simulator hold one event outside the queue and still deliver it
//!   where the queue would have.
//!
//! Each simulator runs its own loop: pop the earliest event, advance the
//! clock to it, handle it, and let the handler push follow-ups.
//!
//! # Examples
//!
//! ```
//! use keddah_des::{Duration, EventQueue, SimTime};
//!
//! // A tick at 1 ms that re-schedules itself until 3 ms.
//! let mut queue = EventQueue::new();
//! queue.push(SimTime::from_millis(1), 1u32);
//! let mut now = SimTime::ZERO;
//! let mut seen = Vec::new();
//! while let Some(ev) = queue.pop() {
//!     assert!(ev.at >= now, "time never moves backwards");
//!     now = ev.at;
//!     seen.push((now, ev.event));
//!     if ev.event < 3 {
//!         queue.push(now + Duration::from_millis(1), ev.event + 1);
//!     }
//! }
//! assert_eq!(seen.len(), 3);
//! assert_eq!(seen[2], (SimTime::from_millis(3), 3));
//! ```

mod queue;
mod time;

pub use queue::{EventQueue, ScheduledEvent};
pub use time::{Duration, SimTime};
