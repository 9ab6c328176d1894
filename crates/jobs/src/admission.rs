//! Admission control: a batch-wide memory budget that degrades gracefully
//! instead of failing on oversubscription.
//!
//! Manifest jobs may declare a heap-cell budget (`mem_cells`). When the
//! operator also sets a *batch-wide* budget (`detjobs --mem-budget`), the
//! controller keeps the sum of in-flight declared cells under it:
//!
//! * A job whose declaration fits waits (blocking its worker) until
//!   enough in-flight cells are released, then runs at **full** budget.
//!   Waiting changes wall-clock order only — never the result — so the
//!   report stays byte-identical for any worker count.
//! * A job that declares **more than the whole batch budget** can never
//!   fit; instead of failing it is admitted immediately at the batch
//!   budget, and the batch records it as degraded. This decision depends
//!   only on the manifest and the budget — two static inputs — so it too
//!   is scheduling-independent.
//! * Jobs with no declaration reserve nothing (the per-run machine still
//!   enforces whatever `mem_cell_budget` their own config carries).

use std::sync::{Condvar, Mutex};

/// What the controller granted a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admission {
    /// Cells reserved on the job's behalf (release exactly this much).
    pub reserved: u64,
    /// The cell budget the job must run under; `None` leaves the job's
    /// own configured budget untouched.
    pub granted: Option<u64>,
    /// Whether the grant is below the job's declaration.
    pub degraded: bool,
}

/// A batch-wide declared-cell budget with blocking admission.
#[derive(Debug)]
pub struct AdmissionController {
    budget: u64,
    in_flight: Mutex<u64>,
    freed: Condvar,
}

impl AdmissionController {
    /// A controller over `budget` total declared cells (clamped to at
    /// least 1 so a zero budget degrades everything rather than dividing
    /// the batch by zero).
    pub fn new(budget: u64) -> Self {
        AdmissionController {
            budget: budget.max(1),
            in_flight: Mutex::new(0),
            freed: Condvar::new(),
        }
    }

    /// Admits a job declaring `requested` cells (`None` = no
    /// declaration), blocking until the reservation fits. See the module
    /// docs for the degradation rule.
    pub fn admit(&self, requested: Option<u64>) -> Admission {
        let Some(req) = requested.filter(|&r| r > 0) else {
            return Admission {
                reserved: 0,
                granted: None,
                degraded: false,
            };
        };
        if req > self.budget {
            // Static decision: can never fit, run degraded at the batch
            // budget instead of failing. No reservation — a degraded job
            // is already capped at the whole budget.
            return Admission {
                reserved: 0,
                granted: Some(self.budget),
                degraded: true,
            };
        }
        let mut in_flight = self.in_flight.lock().unwrap();
        while *in_flight + req > self.budget {
            in_flight = self.freed.wait(in_flight).unwrap();
        }
        *in_flight += req;
        Admission {
            reserved: req,
            granted: Some(req),
            degraded: false,
        }
    }

    /// Returns an admission's reservation to the pool, waking waiters.
    pub fn release(&self, admission: Admission) {
        if admission.reserved == 0 {
            return;
        }
        let mut in_flight = self.in_flight.lock().unwrap();
        *in_flight = in_flight.saturating_sub(admission.reserved);
        drop(in_flight);
        self.freed.notify_all();
    }

    /// The batch-wide budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn undeclared_jobs_pass_straight_through() {
        let c = AdmissionController::new(100);
        let a = c.admit(None);
        assert_eq!(a.reserved, 0);
        assert_eq!(a.granted, None);
        assert!(!a.degraded);
        c.release(a);
    }

    #[test]
    fn oversized_declarations_degrade_to_the_batch_budget() {
        let c = AdmissionController::new(100);
        let a = c.admit(Some(500));
        assert!(a.degraded);
        assert_eq!(a.granted, Some(100));
        assert_eq!(a.reserved, 0);
    }

    #[test]
    fn fitting_declarations_run_at_full_budget() {
        let c = AdmissionController::new(100);
        let a = c.admit(Some(60));
        assert!(!a.degraded);
        assert_eq!(a.granted, Some(60));
        assert_eq!(a.reserved, 60);
        c.release(a);
    }

    #[test]
    fn admission_blocks_until_cells_free_up() {
        let c = Arc::new(AdmissionController::new(100));
        let first = c.admit(Some(80));
        let c2 = c.clone();
        let waiter = std::thread::spawn(move || {
            let a = c2.admit(Some(50)); // cannot fit beside 80
            c2.release(a);
            true
        });
        // Give the waiter time to block, then free the cells.
        std::thread::sleep(std::time::Duration::from_millis(30));
        c.release(first);
        assert!(waiter.join().unwrap());
    }
}
