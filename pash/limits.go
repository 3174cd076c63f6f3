package pash

// Resource governance and fault containment re-exports: the public face
// of the runtime's per-job budgets, load-shedding scheduler bounds, and
// panic containment ring. internal/runtime/README.md ("Failure model")
// states the contract.

import "repro/internal/runtime"

// JobLimits bounds one job's resource consumption: wall-clock time,
// stdout bytes, queued pipe memory, replica width, and (for untrusted
// scripts) filesystem confinement. The zero value means unlimited.
type JobLimits = runtime.JobLimits

// BudgetError reports which budget a job breached; it matches
// ErrBudgetExceeded under errors.Is.
type BudgetError = runtime.BudgetError

// BudgetUsage is a point-in-time snapshot of a job's consumption.
type BudgetUsage = runtime.BudgetUsage

// PanicStats counts the panics the process has contained (converted
// into job-scoped errors) and carries the most recent records.
type PanicStats = runtime.PanicStats

// ErrBudgetExceeded is the sentinel all budget breaches match.
var ErrBudgetExceeded = runtime.ErrBudgetExceeded

// ErrAdmissionShed is the sentinel all shed admissions match: the
// scheduler's bounded queue refused the job instead of queueing it.
var ErrAdmissionShed = runtime.ErrAdmissionShed

// ExitBudgetExceeded is the exit status of a job cancelled for
// exceeding one of its resource budgets.
const ExitBudgetExceeded = runtime.ExitBudgetExceeded

// Panics snapshots the process-wide panic containment ring.
func Panics() PanicStats { return runtime.Panics() }
