package meter

import (
	"math"
	"sync/atomic"
	"time"
)

// gcra is a per-tenant rate limiter: the Generic Cell Rate Algorithm
// folded into a single atomic int64 — the theoretical arrival time
// (TAT) of the next conforming request, in unix nanoseconds. One CAS
// per admission, no allocation, no mutex.
//
// A request at time now conforms when TAT − tolerance ≤ now, where
// interval = 1/rate and tolerance = (burst−1) × interval: a full
// bucket admits `burst` back-to-back requests before throttling to
// the sustained rate.
type gcra struct {
	// interval is nanoseconds per job (0 = unlimited). interval and
	// tolerance are set once, before the tenant is published.
	interval int64
	// tolerance is the burst allowance in nanoseconds.
	tolerance int64
	tat       atomic.Int64
}

func (g *gcra) init(rate float64, burst int) {
	if rate <= 0 {
		return
	}
	iv := int64(math.Round(float64(time.Second) / rate))
	if iv < 1 {
		iv = 1
	}
	if burst < 1 {
		burst = 1
	}
	g.interval = iv
	g.tolerance = int64(burst-1) * iv
}

// allow decides one admission at unix-nano time now. On denial it
// returns how long until the bucket would conform again.
func (g *gcra) allow(now int64) (ok bool, retryAfter time.Duration) {
	iv := g.interval
	if iv == 0 {
		return true, 0
	}
	tol := g.tolerance
	for {
		old := g.tat.Load()
		tat := old
		if tat < now {
			tat = now
		}
		if tat-tol > now {
			return false, time.Duration(tat - tol - now)
		}
		if g.tat.CompareAndSwap(old, tat+iv) {
			return true, 0
		}
	}
}
