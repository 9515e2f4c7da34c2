//! Run control: budgets, cooperative cancellation, and coverage reporting.
//!
//! A [`Budget`] bounds a verification run by wall-clock time, admitted
//! states, or resident memory; a [`CancelToken`] lets another thread stop
//! it cooperatively. Both are checked by the search core only at batch
//! admission boundaries, so the per-state hot loop stays branch-cheap and
//! an interrupted search can always drain to a *consistent point*: every
//! expanded state has all of its successors admitted, and every admitted
//! but unexpanded state is in the frontier. That invariant is what makes
//! the checkpoint/resume path exact rather than approximate.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Resource limits for a verification run.
///
/// All limits are optional; the default budget is unlimited. Unlike
/// `BfsOptions::max_states` (which yields a `Bounded` verdict — "the
/// search space is bigger than I was asked to cover"), a tripped budget
/// yields `Outcome::Inconclusive` — "the run was interrupted and can be
/// resumed from a checkpoint".
#[non_exhaustive]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Budget {
    /// Stop after this much wall-clock time has elapsed.
    pub deadline: Option<Duration>,
    /// Stop after admitting this many states.
    pub max_states: Option<usize>,
    /// Stop once peak resident memory exceeds this many bytes.
    pub max_rss_bytes: Option<u64>,
}

impl Budget {
    /// A budget with no limits (the default).
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Set a wall-clock deadline, measured from the start of the run.
    pub fn deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Cap the number of admitted states.
    pub fn states(mut self, n: usize) -> Self {
        self.max_states = Some(n);
        self
    }

    /// Cap peak resident memory, in bytes.
    pub fn memory_bytes(mut self, bytes: u64) -> Self {
        self.max_rss_bytes = Some(bytes);
        self
    }

    /// True when no limit is set.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_states.is_none() && self.max_rss_bytes.is_none()
    }
}

/// A cooperative cancellation handle.
///
/// Cloning is cheap and all clones share one flag; calling
/// [`CancelToken::cancel`] from any thread asks every search holding a
/// clone to stop at its next admission boundary.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Request cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Why a run stopped early.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InterruptReason {
    /// The [`CancelToken`] was cancelled.
    Cancelled,
    /// The wall-clock deadline passed.
    Deadline,
    /// The admitted-state budget was exhausted.
    StateBudget,
    /// Peak resident memory exceeded the budget.
    MemoryBudget,
}

/// Encode a reason into a nonzero byte for shared atomic interrupt flags
/// (0 means "no interrupt").
pub(crate) fn reason_to_code(r: InterruptReason) -> u8 {
    match r {
        InterruptReason::Cancelled => 1,
        InterruptReason::Deadline => 2,
        InterruptReason::StateBudget => 3,
        InterruptReason::MemoryBudget => 4,
    }
}

/// Inverse of [`reason_to_code`]; panics on 0 or unknown codes.
pub(crate) fn code_to_reason(c: u8) -> InterruptReason {
    match c {
        1 => InterruptReason::Cancelled,
        2 => InterruptReason::Deadline,
        3 => InterruptReason::StateBudget,
        4 => InterruptReason::MemoryBudget,
        _ => unreachable!("invalid interrupt code {c}"),
    }
}

impl fmt::Display for InterruptReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            InterruptReason::Cancelled => "cancelled",
            InterruptReason::Deadline => "wall-clock deadline",
            InterruptReason::StateBudget => "state budget",
            InterruptReason::MemoryBudget => "memory budget",
        })
    }
}

/// How much of the state space an interrupted run covered.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Coverage {
    /// Distinct states admitted to the seen-set.
    pub explored: usize,
    /// Admitted states still awaiting expansion when the run stopped.
    pub frontier: usize,
    /// Deepest BFS level reached.
    pub depth: usize,
}

impl fmt::Display for Coverage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} states explored, {} in frontier, depth {}",
            self.explored, self.frontier, self.depth
        )
    }
}

/// A [`Budget`] resolved against a concrete start instant, plus the
/// cancel token — the form the search actually polls.
#[derive(Clone, Debug)]
pub struct RunControl {
    cancel: CancelToken,
    deadline: Option<Instant>,
    max_states: usize,
    max_rss: Option<u64>,
}

/// RSS is read from the OS (a procfs parse), so it is polled only every
/// `RSS_STRIDE`-th trip check.
const RSS_STRIDE: u32 = 32;

impl RunControl {
    /// A control that never trips.
    pub fn unlimited() -> Self {
        RunControl {
            cancel: CancelToken::new(),
            deadline: None,
            max_states: usize::MAX,
            max_rss: None,
        }
    }

    /// Resolve `budget` against `Instant::now()` with the given token.
    pub fn new(budget: &Budget, cancel: CancelToken) -> Self {
        RunControl {
            cancel,
            deadline: budget.deadline.map(|d| Instant::now() + d),
            max_states: budget.max_states.unwrap_or(usize::MAX),
            max_rss: budget.max_rss_bytes,
        }
    }

    /// Override the absolute deadline (used by the checkpoint driver to
    /// shorten a slice to the next checkpoint tick).
    pub fn with_deadline(mut self, at: Instant) -> Self {
        self.deadline = Some(match self.deadline {
            Some(d) => d.min(at),
            None => at,
        });
        self
    }

    /// The cancel token this control polls.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Check every limit. `states` is the current admitted-state count;
    /// `ticks` is caller-owned scratch that strides the RSS poll. Returns
    /// the first tripped limit, or `None` to keep going.
    #[inline]
    pub fn trip(&self, states: usize, ticks: &mut u32) -> Option<InterruptReason> {
        if self.cancel.is_cancelled() {
            return Some(InterruptReason::Cancelled);
        }
        if states >= self.max_states {
            return Some(InterruptReason::StateBudget);
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Some(InterruptReason::Deadline);
            }
        }
        if let Some(cap) = self.max_rss {
            *ticks = ticks.wrapping_add(1);
            if ticks.is_multiple_of(RSS_STRIDE) {
                if let Some(rss) = scv_telemetry::peak_rss_bytes() {
                    if rss > cap {
                        return Some(InterruptReason::MemoryBudget);
                    }
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_is_unlimited() {
        let b = Budget::default();
        assert!(b.is_unlimited());
        assert_eq!(b, Budget::unlimited());
        let ctrl = RunControl::new(&b, CancelToken::new());
        let mut ticks = 0;
        assert_eq!(ctrl.trip(1_000_000_000, &mut ticks), None);
    }

    #[test]
    fn budget_builders_compose() {
        let b = Budget::unlimited()
            .deadline(Duration::from_secs(5))
            .states(100)
            .memory_bytes(1 << 30);
        assert_eq!(b.deadline, Some(Duration::from_secs(5)));
        assert_eq!(b.max_states, Some(100));
        assert_eq!(b.max_rss_bytes, Some(1 << 30));
        assert!(!b.is_unlimited());
    }

    #[test]
    fn state_budget_trips_at_cap() {
        let ctrl = RunControl::new(&Budget::unlimited().states(10), CancelToken::new());
        let mut ticks = 0;
        assert_eq!(ctrl.trip(9, &mut ticks), None);
        assert_eq!(
            ctrl.trip(10, &mut ticks),
            Some(InterruptReason::StateBudget)
        );
        assert_eq!(
            ctrl.trip(11, &mut ticks),
            Some(InterruptReason::StateBudget)
        );
    }

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let t = CancelToken::new();
        let t2 = t.clone();
        assert!(!t.is_cancelled());
        t2.cancel();
        assert!(t.is_cancelled());
        let ctrl = RunControl::new(&Budget::unlimited(), t);
        let mut ticks = 0;
        assert_eq!(ctrl.trip(0, &mut ticks), Some(InterruptReason::Cancelled));
    }

    #[test]
    fn expired_deadline_trips() {
        let ctrl = RunControl::new(
            &Budget::unlimited().deadline(Duration::ZERO),
            CancelToken::new(),
        );
        let mut ticks = 0;
        assert_eq!(ctrl.trip(0, &mut ticks), Some(InterruptReason::Deadline));
    }

    #[test]
    fn with_deadline_takes_the_earlier_instant() {
        let near = Instant::now();
        let far = near + Duration::from_secs(3600);
        let ctrl = RunControl::unlimited()
            .with_deadline(far)
            .with_deadline(near);
        let mut ticks = 0;
        assert_eq!(ctrl.trip(0, &mut ticks), Some(InterruptReason::Deadline));
    }

    #[test]
    fn reason_display_is_stable() {
        assert_eq!(InterruptReason::Cancelled.to_string(), "cancelled");
        assert_eq!(InterruptReason::Deadline.to_string(), "wall-clock deadline");
        assert_eq!(InterruptReason::StateBudget.to_string(), "state budget");
        assert_eq!(InterruptReason::MemoryBudget.to_string(), "memory budget");
    }

    #[test]
    fn coverage_display() {
        let c = Coverage {
            explored: 12,
            frontier: 3,
            depth: 4,
        };
        assert_eq!(c.to_string(), "12 states explored, 3 in frontier, depth 4");
    }
}
