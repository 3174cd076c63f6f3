package pash

// Tenant governance re-exports: the public face of the meter package's
// per-tenant quotas, rate limits, and VSA-style usage accounting. See
// "The tenant front door" in DESIGN.md.

import "repro/internal/meter"

// Meter is the tenant registry: per-tenant job quotas, GCRA rate
// buckets, and VSA usage accumulators with watermark-driven background
// commits.
type Meter = meter.Meter

// MeterConfig tunes a Meter (default quota, rate/burst, commit
// watermarks and interval, sink).
type MeterConfig = meter.Config

// Tenant is one tenant's accounting row inside a Meter.
type Tenant = meter.Tenant

// TenantStats is one per-tenant metrics row (usage vs quota, sheds by
// cause, commit count).
type TenantStats = meter.TenantStats

// MeterStats is the meter-wide snapshot carried in /metrics.
type MeterStats = meter.Stats

// TenantUsage is a tenant's consumption in the metered dimensions
// (jobs, wall-ns, bytes).
type TenantUsage = meter.Usage

// ShedCause classifies an admission refusal: quota (403), rate (429),
// or capacity (503).
type ShedCause = meter.Cause

// Shed causes, re-exported for switch labels.
const (
	ShedNone     = meter.CauseNone
	ShedQuota    = meter.CauseQuota
	ShedRate     = meter.CauseRate
	ShedCapacity = meter.CauseCapacity
)

// NewMeter builds a tenant meter; call Start on it to run the
// background committer.
func NewMeter(cfg MeterConfig) *Meter { return meter.New(cfg) }

// NewMeterFileSink opens (or appends to) a JSONL commit log for use as
// MeterConfig.Sink.
func NewMeterFileSink(path string) (*meter.FileSink, error) { return meter.NewFileSink(path) }
