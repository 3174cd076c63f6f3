package dist

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"
)

// This file is the fault-injection layer of the distributed plane: a
// per-worker Injector the Pool consults on every dial, wrapping worker
// connections in deterministically misbehaving ones. It exists so the
// recovery paths (retry, re-dispatch, prober hysteresis) are
// continuously exercised code: the chaos suite installs it with
// Pool.SetFaultInjector and drives every fault class through the real
// coordinator+worker stack.

// FaultKind enumerates the injectable fault classes.
type FaultKind int

const (
	// FaultNone is the zero value: no fault.
	FaultNone FaultKind = iota
	// FaultRefuse fails the dial immediately (connection refused): the
	// transient-error shape that retry-with-backoff absorbs.
	FaultRefuse
	// FaultPartition blackholes the connection: dials "succeed" but no
	// byte ever moves, the network-partition shape that only deadlines
	// and the inactivity watchdog can detect.
	FaultPartition
	// FaultKill resets the connection after AfterBytes of response
	// bytes: a worker dying mid-stream.
	FaultKill
	// FaultSlow delays every read by Latency (± Jitter): a slow — not
	// dead — worker, the shape the EWMA degrade detector exists for.
	FaultSlow
	// FaultTruncate ends the stream with a clean-looking EOF after
	// AfterBytes: the torn-frame shape ErrTruncatedFrame guards.
	FaultTruncate
	// FaultCorrupt flips a bit in the stream after AfterBytes: the
	// shape the frame CRC guards.
	FaultCorrupt
)

// faultKindNames names each FaultKind for FaultKind.String.
var faultKindNames = [...]string{
	FaultNone:      "none",
	FaultRefuse:    "refuse",
	FaultPartition: "partition",
	FaultKill:      "kill",
	FaultSlow:      "slow",
	FaultTruncate:  "truncate",
	FaultCorrupt:   "corrupt",
}

func (k FaultKind) String() string {
	if k < 0 || int(k) >= len(faultKindNames) {
		return "unknown"
	}
	return faultKindNames[k]
}

// FaultSpec configures one worker's injected fault.
type FaultSpec struct {
	Kind FaultKind
	// AfterBytes is the response-byte threshold at which Kill,
	// Truncate, Corrupt, and mid-stream Partition fire (0 = first byte).
	AfterBytes int64
	// Latency and Jitter shape FaultSlow: every read sleeps
	// Latency ± uniform(Jitter).
	Latency time.Duration
	Jitter  time.Duration
	// Times bounds how often the fault engages — a dial refused or
	// blackholed, a slowed connection, a stream that crossed AfterBytes
	// and was killed, truncated, corrupted or partitioned; 0 means every
	// time until cleared. A connection whose response never reaches
	// AfterBytes engages nothing and spends nothing.
	Times int
}

// Injector holds per-worker fault specs. The zero value injects
// nothing; methods are safe for concurrent use.
type Injector struct {
	mu    sync.Mutex
	specs map[string]*faultState
	rng   *rand.Rand
}

type faultState struct {
	spec    FaultSpec
	engaged int
}

// NewInjector builds an injector whose jitter is driven by seed, so
// chaos runs replay deterministically.
func NewInjector(seed int64) *Injector {
	return &Injector{specs: map[string]*faultState{}, rng: rand.New(rand.NewSource(seed))}
}

// Set installs (or replaces) the fault for one worker address; the
// wildcard "*" applies to every worker without an explicit spec.
func (inj *Injector) Set(worker string, spec FaultSpec) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if inj.specs == nil {
		inj.specs = map[string]*faultState{}
	}
	inj.specs[worker] = &faultState{spec: spec}
}

// Clear removes one worker's fault ("*" clears the wildcard).
func (inj *Injector) Clear(worker string) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	delete(inj.specs, worker)
}

// Engaged reports how many times the fault installed for worker (an
// address or "*") has actually engaged. A chaos cell checks it before
// its recovery assertions: a fault that never engaged proves nothing.
func (inj *Injector) Engaged(worker string) int {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if st := inj.specs[worker]; st != nil {
		return st.engaged
	}
	return 0
}

// armed returns the fault state a new connection to worker runs under,
// or nil when none applies (none installed, or budget already spent).
func (inj *Injector) armed(worker string) *faultState {
	if inj == nil {
		return nil
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	st := inj.specs[worker]
	if st == nil {
		st = inj.specs["*"]
	}
	if st == nil || st.spec.Kind == FaultNone || st.spent() {
		return nil
	}
	return st
}

func (st *faultState) spent() bool { return st.spec.Times > 0 && st.engaged >= st.spec.Times }

// engage spends one firing of st's budget, reporting false when
// concurrent connections already spent the last one.
func (inj *Injector) engage(st *faultState) bool {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if st.spent() {
		return false
	}
	st.engaged++
	return true
}

// jitter draws a deterministic jitter in [-d, d].
func (inj *Injector) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if inj.rng == nil {
		return 0
	}
	return time.Duration(inj.rng.Int63n(int64(2*d))) - d
}

// dial applies dial-time faults and wraps the connection for
// stream-time ones. ok=false means no fault is active and the caller
// should dial normally. Refuse, dial-time partition and slow engage
// here, unconditionally; the threshold faults engage in faultConn.Read,
// when the response actually crosses AfterBytes.
func (inj *Injector) dial(worker string, real func() (net.Conn, error)) (net.Conn, bool, error) {
	st := inj.armed(worker)
	if st == nil {
		return nil, false, nil
	}
	spec := st.spec
	atDial := spec.Kind == FaultRefuse || spec.Kind == FaultSlow ||
		(spec.Kind == FaultPartition && spec.AfterBytes == 0)
	if atDial && !inj.engage(st) {
		return nil, false, nil
	}
	switch {
	case spec.Kind == FaultRefuse:
		return nil, true, fmt.Errorf("dist: fault: connection to %s refused", worker)
	case spec.Kind == FaultPartition && atDial:
		return newBlackholeConn(), true, nil
	}
	conn, err := real()
	if err != nil {
		return nil, true, err
	}
	return &faultConn{Conn: conn, inj: inj, st: st, spec: spec}, true, nil
}

// faultConn injects stream-time faults on the read (response) side of
// a worker connection.
type faultConn struct {
	net.Conn
	inj  *Injector
	st   *faultState
	spec FaultSpec

	mu     sync.Mutex
	seen   int64
	fired  bool           // the threshold fault engaged on this connection
	passed bool           // it reached the threshold with the budget already spent
	bh     *blackholeConn // non-nil once a mid-stream partition engaged
	closed bool
}

// trip reports whether the threshold fault is live on this connection,
// engaging it — spending one firing of the worker's budget — the first
// time the response reaches the threshold. A connection that loses the
// race for the last firing passes the rest of its stream through
// untouched. Callers hold fc.mu.
func (fc *faultConn) trip(reached bool) bool {
	if !fc.fired && !fc.passed && reached {
		fc.fired = fc.inj.engage(fc.st)
		fc.passed = !fc.fired
	}
	return fc.fired
}

func (fc *faultConn) Read(p []byte) (int, error) {
	fc.mu.Lock()
	if fc.bh != nil {
		bh := fc.bh
		fc.mu.Unlock()
		return bh.Read(p)
	}
	reached := fc.seen >= fc.spec.AfterBytes
	switch fc.spec.Kind {
	case FaultKill:
		if fc.trip(reached) {
			seen := fc.seen
			fc.mu.Unlock()
			fc.Conn.Close()
			return 0, fmt.Errorf("dist: fault: connection to worker reset after %d bytes", seen)
		}
	case FaultTruncate:
		if fc.trip(reached) {
			// A clean-looking EOF mid-stream: exactly the shape that
			// must never be mistaken for end of output.
			fc.mu.Unlock()
			fc.Conn.Close()
			return 0, io.EOF
		}
	case FaultPartition:
		if fc.trip(reached) {
			fc.bh = newBlackholeConn()
			if fc.closed {
				fc.bh.Close()
			}
			bh := fc.bh
			fc.mu.Unlock()
			return bh.Read(p)
		}
	}
	fc.mu.Unlock()
	if fc.spec.Kind == FaultSlow {
		time.Sleep(fc.spec.Latency + fc.inj.jitter(fc.spec.Jitter))
	}
	n, err := fc.Conn.Read(p)
	fc.mu.Lock()
	fc.seen += int64(n)
	over := fc.seen - fc.spec.AfterBytes
	if fc.spec.Kind == FaultCorrupt && !fc.fired && fc.trip(n > 0 && over > 0) {
		fc.mu.Unlock()
		// Flip one bit inside the bytes that crossed the threshold.
		idx := n - 1
		if int64(over) < int64(n) {
			idx = n - int(over)
		}
		p[idx] ^= 0x20
		return n, err
	}
	fc.mu.Unlock()
	return n, err
}

func (fc *faultConn) Close() error {
	fc.mu.Lock()
	fc.closed = true
	if fc.bh != nil {
		fc.bh.Close()
	}
	fc.mu.Unlock()
	return fc.Conn.Close()
}

// blackholeConn is a connection into a network partition: every read
// and write blocks until its deadline (one for both directions) or
// Close. It satisfies the net.Conn deadline contract so probe timeouts
// and the handshake deadline observe the partition instead of hanging
// forever.
type blackholeConn struct {
	mu     sync.Mutex
	dl     time.Time
	closed chan struct{}
	once   sync.Once
}

func newBlackholeConn() *blackholeConn {
	return &blackholeConn{closed: make(chan struct{})}
}

// timeoutError satisfies net.Error with Timeout()=true, the same shape
// real deadline expiries produce.
type timeoutError struct{}

func (timeoutError) Error() string   { return "dist: fault: i/o timeout (partitioned)" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

func (b *blackholeConn) wait() error {
	b.mu.Lock()
	dl := b.dl
	b.mu.Unlock()
	var timer <-chan time.Time
	if !dl.IsZero() {
		d := time.Until(dl)
		if d <= 0 {
			return timeoutError{}
		}
		t := time.NewTimer(d)
		defer t.Stop()
		timer = t.C
	}
	select {
	case <-b.closed:
		return net.ErrClosed
	case <-timer:
		return timeoutError{}
	}
}

func (b *blackholeConn) Read(p []byte) (int, error)  { return 0, b.wait() }
func (b *blackholeConn) Write(p []byte) (int, error) { return 0, b.wait() }
func (b *blackholeConn) Close() error                { b.once.Do(func() { close(b.closed) }); return nil }
func (b *blackholeConn) LocalAddr() net.Addr         { return blackholeAddr{} }
func (b *blackholeConn) RemoteAddr() net.Addr        { return blackholeAddr{} }

func (b *blackholeConn) SetDeadline(t time.Time) error {
	b.mu.Lock()
	b.dl = t
	b.mu.Unlock()
	return nil
}

func (b *blackholeConn) SetReadDeadline(t time.Time) error  { return b.SetDeadline(t) }
func (b *blackholeConn) SetWriteDeadline(t time.Time) error { return b.SetDeadline(t) }

type blackholeAddr struct{}

func (blackholeAddr) Network() string { return "blackhole" }
func (blackholeAddr) String() string  { return "blackhole" }
