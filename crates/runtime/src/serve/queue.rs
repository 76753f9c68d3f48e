//! The bounded request queue and its dequeue-side coalescer.
//!
//! Fault tolerance starts here: requests carry optional deadlines, the
//! dequeue sweep answers expired requests with
//! [`ServeError::DeadlineExceeded`] *before* they consume a batch slot, a
//! queue-depth watermark sheds the requests least likely to make their
//! deadlines, and response delivery is first-write-wins so a panicking
//! worker and the shutdown flush can both try to answer the same request
//! without clobbering a result that already arrived.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use super::cache::PlanKey;
use super::retry::splitmix64;
use super::sync::{lock_recover, wait_recover, wait_timeout_recover};
use venom_fp16::Half;
use venom_tensor::Matrix;

/// A serving failure delivered to the submitting client.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// Admission control rejected the request: the queue held `capacity`
    /// requests already (use the blocking submit to wait instead).
    QueueFull {
        /// The queue's configured capacity.
        capacity: usize,
    },
    /// No plan or builder is registered for the request's key.
    UnknownKey,
    /// The server is shutting down and accepts no new requests.
    ShuttingDown,
    /// The operand's row count does not match the planned reduction
    /// dimension K.
    OperandShape {
        /// The planned K.
        expected_k: usize,
        /// The operand's row count.
        got: usize,
    },
    /// The request's deadline passed before a worker dispatched it (or,
    /// from [`ResponseHandle::wait_timeout`], before the caller's wait
    /// budget ran out).
    DeadlineExceeded,
    /// Load shedding dropped the request: the queue depth crossed the
    /// configured watermark and this request was the least likely to
    /// make its deadline.
    Shed {
        /// The watermark that triggered the shed.
        watermark: usize,
    },
    /// A worker panicked while serving the batch this request was packed
    /// into. The panic was contained; other requests are unaffected.
    WorkerPanicked,
    /// The plan build for the request's key failed (after any configured
    /// retries) and no degraded fallback was registered.
    BuildFailed {
        /// The builder's error.
        reason: String,
    },
    /// The plan build for the request's key did not finish within the
    /// configured build timeout and no degraded fallback was registered.
    /// The build keeps running in the background; later requests may
    /// find the plan resident.
    BuildTimedOut,
}

impl core::fmt::Display for ServeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ServeError::QueueFull { capacity } => {
                write!(f, "request queue is full (capacity {capacity})")
            }
            ServeError::UnknownKey => f.write_str("no plan registered for the request's key"),
            ServeError::ShuttingDown => f.write_str("the server is shutting down"),
            ServeError::OperandShape { expected_k, got } => write!(
                f,
                "operand has {got} rows but the plan's reduction dimension is {expected_k}"
            ),
            ServeError::DeadlineExceeded => f.write_str("the request's deadline passed"),
            ServeError::Shed { watermark } => write!(
                f,
                "request shed under load (queue depth crossed the {watermark}-request watermark)"
            ),
            ServeError::WorkerPanicked => {
                f.write_str("a worker panicked while serving the request's batch")
            }
            ServeError::BuildFailed { reason } => write!(f, "plan build failed: {reason}"),
            ServeError::BuildTimedOut => f.write_str("plan build timed out"),
        }
    }
}

impl std::error::Error for ServeError {}

/// The one-shot channel a worker answers a request through. Delivery is
/// first-write-wins: once a result is in, later deliveries (a panic
/// handler or the shutdown flush racing the happy path) are no-ops.
#[derive(Debug, Default)]
pub(crate) struct ResponseSlot {
    result: Mutex<Option<Result<Matrix<f32>, ServeError>>>,
    ready: Condvar,
}

impl ResponseSlot {
    /// Stores `result` if no result arrived yet; returns whether this
    /// call was the one that delivered.
    pub(crate) fn fulfill(&self, result: Result<Matrix<f32>, ServeError>) -> bool {
        let mut guard = lock_recover(&self.result);
        if guard.is_some() {
            return false;
        }
        *guard = Some(result);
        self.ready.notify_all();
        true
    }
}

/// The client's handle to one submitted request; [`Self::wait`] blocks
/// until a worker delivers the output (or a serving error).
#[derive(Debug)]
pub struct ResponseHandle {
    pub(crate) slot: Arc<ResponseSlot>,
}

impl ResponseHandle {
    /// Blocks until the request is served.
    ///
    /// # Errors
    /// Returns the [`ServeError`] the worker delivered.
    pub fn wait(self) -> Result<Matrix<f32>, ServeError> {
        let mut guard = lock_recover(&self.slot.result);
        loop {
            if let Some(result) = guard.take() {
                return result;
            }
            guard = wait_recover(&self.slot.ready, guard);
        }
    }

    /// Blocks until the request is served or `timeout` elapses. The
    /// handle stays usable after a timeout: the caller can wait again or
    /// poll later — bounding the wait never orphans the response.
    ///
    /// # Errors
    /// The delivered [`ServeError`], or [`ServeError::DeadlineExceeded`]
    /// when `timeout` elapsed with no response.
    pub fn wait_timeout(&self, timeout: Duration) -> Result<Matrix<f32>, ServeError> {
        let deadline = Instant::now() + timeout;
        let mut guard = lock_recover(&self.slot.result);
        loop {
            if let Some(result) = guard.take() {
                return result;
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(ServeError::DeadlineExceeded);
            }
            (guard, _) = wait_timeout_recover(&self.slot.ready, guard, deadline - now);
        }
    }

    /// Takes the response if one has arrived, without blocking.
    pub fn poll(&self) -> Option<Result<Matrix<f32>, ServeError>> {
        lock_recover(&self.slot.result).take()
    }
}

/// Process-wide request counter feeding each request's deterministic
/// backoff-jitter seed.
static REQUEST_COUNTER: AtomicU64 = AtomicU64::new(0);

/// One queued matmul request: which plan to run, the operand to run it
/// on, when it stops being worth running, and where to deliver the
/// output.
#[derive(Debug)]
pub struct ServeRequest {
    /// Process-unique request ordinal — correlates this request's trace
    /// spans (admission, dispatch, degraded fallback) across threads.
    pub id: u64,
    /// The plan the request is against — the coalescing key.
    pub key: PlanKey,
    /// The `K x cols` operand.
    pub operand: Matrix<Half>,
    /// When the request entered the queue (drives the latency metrics).
    pub submitted: Instant,
    /// Past this instant the request is answered with
    /// [`ServeError::DeadlineExceeded`] instead of dispatched.
    pub deadline: Option<Instant>,
    /// Seed for deterministic retry jitter on this request's behalf.
    pub(crate) seed: u64,
    pub(crate) responder: Arc<ResponseSlot>,
}

impl ServeRequest {
    /// A request plus the handle its output arrives through.
    pub fn new(key: PlanKey, operand: Matrix<Half>) -> (Self, ResponseHandle) {
        let responder = Arc::new(ResponseSlot::default());
        let ordinal = REQUEST_COUNTER.fetch_add(1, Ordering::Relaxed);
        (
            ServeRequest {
                id: ordinal,
                key,
                operand,
                submitted: Instant::now(),
                deadline: None,
                seed: splitmix64(ordinal) ^ key.fingerprint,
                responder: Arc::clone(&responder),
            },
            ResponseHandle { slot: responder },
        )
    }

    /// Bounds the request's life: past `deadline` it is expired out of
    /// the queue instead of dispatched.
    #[must_use]
    pub fn with_deadline_at(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Whether the request's deadline has passed at `now`.
    pub fn expired_at(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| d <= now)
    }

    /// Delivers the result to the waiting client (first write wins);
    /// returns whether this call delivered.
    pub(crate) fn fulfill(&self, result: Result<Matrix<f32>, ServeError>) -> bool {
        self.responder.fulfill(result)
    }
}

#[derive(Debug, Default)]
struct QueueState {
    queue: VecDeque<ServeRequest>,
    closed: bool,
}

/// A bounded MPMC request queue. Submission is the admission-control
/// point (reject when full, or block for backpressure; an optional
/// watermark sheds the worst-deadline request instead of queueing
/// deeper); the dequeue side expires overdue requests and coalesces
/// same-key requests into one batch.
#[derive(Debug)]
pub struct RequestQueue {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    /// Queue depth at which load shedding starts (`None` disables it).
    shed_watermark: Option<usize>,
    expired: AtomicU64,
    shed: AtomicU64,
}

impl RequestQueue {
    /// A queue admitting at most `capacity` requests.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn bounded(capacity: usize) -> Self {
        assert!(capacity >= 1, "queue capacity must be at least 1");
        RequestQueue {
            state: Mutex::new(QueueState::default()),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
            shed_watermark: None,
            expired: AtomicU64::new(0),
            shed: AtomicU64::new(0),
        }
    }

    /// Enables load shedding once the queue depth reaches `watermark`:
    /// rather than queueing deeper, the request least likely to make its
    /// deadline (soonest deadline first; oldest deadline-free request
    /// otherwise) is answered with [`ServeError::Shed`].
    ///
    /// # Panics
    /// Panics if `watermark` is `Some(0)`.
    #[must_use]
    pub fn with_shed_watermark(mut self, watermark: Option<usize>) -> Self {
        assert!(
            watermark != Some(0),
            "a zero watermark would shed every request"
        );
        self.shed_watermark = watermark;
        self
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Requests currently queued.
    pub fn len(&self) -> usize {
        lock_recover(&self.state).queue.len()
    }

    /// Whether no requests are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Requests answered with [`ServeError::DeadlineExceeded`] by the
    /// dequeue-side expiry sweep.
    pub fn expired_count(&self) -> u64 {
        self.expired.load(Ordering::Relaxed)
    }

    /// Requests answered with [`ServeError::Shed`] by the watermark.
    pub fn shed_count(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Sheds the queued-or-incoming request least likely to make its
    /// deadline, if the watermark is set and the depth (counting the
    /// incoming request) reaches it. Returns the incoming request back
    /// unless it was the victim.
    fn shed_for(&self, state: &mut QueueState, incoming: ServeRequest) -> Option<ServeRequest> {
        let Some(watermark) = self.shed_watermark else {
            return Some(incoming);
        };
        if state.queue.len() < watermark {
            return Some(incoming);
        }
        // Soonest deadline first; among deadline-free requests, oldest
        // first (they have waited longest for the least reason to hurry).
        let urgency = |r: &ServeRequest| (r.deadline.is_none(), r.deadline, r.submitted);
        let victim_idx = state
            .queue
            .iter()
            .enumerate()
            .min_by_key(|(_, r)| urgency(r))
            .map(|(i, _)| i);
        let shed_incoming = match victim_idx {
            Some(i) => urgency(&incoming) < urgency(&state.queue[i]),
            None => true,
        };
        let victim = if shed_incoming {
            incoming
        } else {
            let i = victim_idx.expect("non-empty queue has a victim");
            let survivor = state.queue.remove(i).expect("index checked");
            state.queue.push_back(incoming);
            // A slot freed up for blocked submitters.
            self.not_full.notify_all();
            survivor
        };
        // Counted before the answer, so the shed client sees itself in
        // `shed_count`.
        self.shed.fetch_add(1, Ordering::Relaxed);
        victim.fulfill(Err(ServeError::Shed { watermark }));
        if !shed_incoming {
            self.not_empty.notify_one();
        }
        None
    }

    /// Non-blocking admission: enqueues `req`, or rejects it when the
    /// queue is full or closed (the request is handed back so the caller
    /// can retry or fail its client). With a shed watermark set, depth
    /// pressure sheds the worst-deadline request instead of rejecting.
    ///
    /// # Errors
    /// [`ServeError::QueueFull`] at capacity, [`ServeError::ShuttingDown`]
    /// after [`Self::close`].
    // The Err variant deliberately carries the rejected request back to
    // the caller (retry/fail-the-client semantics); boxing it would put
    // an allocation on every rejection of an already-allocated operand.
    #[allow(clippy::result_large_err)]
    pub fn try_submit(&self, req: ServeRequest) -> Result<(), (ServeError, ServeRequest)> {
        let mut state = lock_recover(&self.state);
        if state.closed {
            return Err((ServeError::ShuttingDown, req));
        }
        let Some(req) = self.shed_for(&mut state, req) else {
            // The incoming request was the shed victim: it was answered
            // (with ServeError::Shed) rather than rejected unanswered.
            return Ok(());
        };
        if state.queue.len() >= self.capacity {
            return Err((
                ServeError::QueueFull {
                    capacity: self.capacity,
                },
                req,
            ));
        }
        state.queue.push_back(req);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocking admission (backpressure): waits for a free slot instead
    /// of rejecting.
    ///
    /// # Errors
    /// [`ServeError::ShuttingDown`] if the queue closes while waiting.
    #[allow(clippy::result_large_err)]
    pub fn submit(&self, req: ServeRequest) -> Result<(), (ServeError, ServeRequest)> {
        let mut state = lock_recover(&self.state);
        while !state.closed && state.queue.len() >= self.capacity {
            state = wait_recover(&self.not_full, state);
        }
        if state.closed {
            return Err((ServeError::ShuttingDown, req));
        }
        let Some(req) = self.shed_for(&mut state, req) else {
            return Ok(());
        };
        state.queue.push_back(req);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Answers every expired queued request with
    /// [`ServeError::DeadlineExceeded`] and removes it — expired work
    /// must never consume a batch slot.
    fn expire_overdue(&self, state: &mut QueueState) {
        let now = Instant::now();
        if !state.queue.iter().any(|r| r.expired_at(now)) {
            return;
        }
        state.queue.retain(|req| {
            if req.expired_at(now) {
                // Counted before the answer, as for sheds.
                self.expired.fetch_add(1, Ordering::Relaxed);
                req.fulfill(Err(ServeError::DeadlineExceeded));
                false
            } else {
                true
            }
        });
        self.not_full.notify_all();
    }

    /// The coalescer: blocks for the oldest live request, then greedily
    /// packs queued requests with the same plan key into the batch, up
    /// to `max_batch` total. Requests whose deadline has passed are
    /// answered with [`ServeError::DeadlineExceeded`] and never occupy a
    /// batch slot; requests for other keys keep their queue positions.
    /// Returns `None` once the queue is closed *and* drained (workers
    /// use this as their exit signal).
    ///
    /// # Panics
    /// Panics if `max_batch` is zero.
    pub fn pop_coalesced(&self, max_batch: usize) -> Option<Vec<ServeRequest>> {
        assert!(max_batch >= 1, "max_batch must be at least 1");
        let mut state = lock_recover(&self.state);
        loop {
            self.expire_overdue(&mut state);
            if let Some(first) = state.queue.pop_front() {
                // Covers the packing sweep only — not the blocking wait
                // above, which would dominate every trace.
                let _span = venom_obs::span!("coalesce", first.id);
                let key = first.key;
                let mut batch = vec![first];
                let mut i = 0;
                while batch.len() < max_batch && i < state.queue.len() {
                    if state.queue[i].key == key {
                        batch.push(state.queue.remove(i).expect("index checked"));
                    } else {
                        i += 1;
                    }
                }
                self.not_full.notify_all();
                return Some(batch);
            }
            if state.closed {
                return None;
            }
            state = wait_recover(&self.not_empty, state);
        }
    }

    /// Closes the queue: pending requests still drain, new submissions
    /// fail with [`ServeError::ShuttingDown`], and waiting workers wake.
    pub fn close(&self) {
        let mut state = lock_recover(&self.state);
        state.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Removes and returns everything still queued — the shutdown flush
    /// uses this to answer requests no worker will ever take.
    pub(crate) fn drain_remaining(&self) -> Vec<ServeRequest> {
        let mut state = lock_recover(&self.state);
        let drained = state.queue.drain(..).collect();
        self.not_full.notify_all();
        drained
    }
}
