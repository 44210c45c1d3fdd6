package orch

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/spi"
	"repro/internal/transport"
)

// KernelSet is everything a worker needs to execute one partition:
// kernels by actor name, checkpoint hooks for the stateful ones, and a
// collector that drains the epoch's sink digest contributions (called
// only on success, so aborted epochs contribute nothing).
type KernelSet struct {
	Kernels map[string]spi.Kernel
	Hooks   map[string]spi.StateHooks
	Collect func() map[string]uint64
}

// KernelProvider builds a fresh KernelSet for one partition spec. It is
// called once per epoch attempt, so kernel state always starts from the
// spec's checkpoint blobs, never from a previous attempt's leftovers.
type KernelProvider func(spec *spi.PartitionSpec) (*KernelSet, error)

// WorkerConfig configures one orchestrated worker.
type WorkerConfig struct {
	// Transport carries both the control link to the coordinator and the
	// data links to peer workers.
	Transport transport.Transport
	// Coord is the coordinator's control-plane address.
	Coord string
	// Name identifies the worker in registration and logs.
	Name string
	// Kernels builds the kernels for each dispatched partition.
	Kernels KernelProvider
	// DataAddr returns the address to bind the per-epoch data listener
	// on. Nil defaults to "<name>-data-e<epoch>" (loopback-style unique
	// names); TCP deployments return "host:0" for an ephemeral port.
	DataAddr func(epoch uint32) string
	// Retry configures dials: the control dial to the coordinator and
	// the data dials to peers.
	Retry transport.RetryConfig
	// Heartbeat / PeerTimeout enable liveness probing on the control and
	// data links; the coordinator declares this worker dead when its
	// control link falls silent past the peer timeout.
	Heartbeat   time.Duration
	PeerTimeout time.Duration
	// Reconnect enables RESUME resumption on the data plane.
	Reconnect transport.ReconnectConfig
	// SendTimeout bounds data-plane frame writes.
	SendTimeout time.Duration
	// Obs instruments the worker's runtime edges and links.
	Obs *obs.Observer
}

// workerEvent is one decoded control message (or link closure) delivered
// to the worker's event loop.
type workerEvent struct {
	msg    any
	err    error
	closed bool
}

// workerHandler adapts the transport callbacks to the event channel. The
// worker's control link carries no SPI edges, so the data callbacks are
// inert.
type workerHandler struct{ events chan workerEvent }

func (h *workerHandler) HandleData(edge uint16, msg []byte)  {}
func (h *workerHandler) HandleAck(edge uint16, count uint32) {}
func (h *workerHandler) HandleFin(edge uint16)               {}
func (h *workerHandler) HandleLinkClose(err error) {
	h.events <- workerEvent{closed: true, err: err}
}
func (h *workerHandler) HandleCtrl(op byte, payload []byte) {
	msg, err := DecodeCtrl(op, payload)
	if err != nil {
		h.events <- workerEvent{err: err}
		return
	}
	h.events <- workerEvent{msg: msg}
}

// epochRun is one in-flight partition execution.
type epochRun struct {
	epoch  uint32
	cancel context.CancelFunc
	done   chan struct{}
}

// Worker registers with a coordinator and executes the partitions it is
// dispatched until Shutdown, the context is cancelled, or the control
// link dies. A worker holds no graph, no mapping, and no global state:
// everything it executes arrives in partition specs, and everything it
// learned leaves in Done checkpoints.
type Worker struct {
	cfg  WorkerConfig
	link *transport.Link
	id   atomic.Uint32 // assigned by the coordinator's Welcome; 0 before

	mu  sync.Mutex
	lns map[uint32]transport.Listener // per-epoch pending data listeners
}

// NewWorker validates the config and returns an unstarted worker.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Transport == nil || cfg.Coord == "" || cfg.Kernels == nil {
		return nil, fmt.Errorf("orch: worker needs a transport, a coordinator address, and kernels")
	}
	if cfg.Name == "" {
		cfg.Name = "worker"
	}
	if cfg.DataAddr == nil {
		name := cfg.Name
		cfg.DataAddr = func(epoch uint32) string {
			return fmt.Sprintf("%s-data-e%d", name, epoch)
		}
	}
	return &Worker{cfg: cfg, lns: map[uint32]transport.Listener{}}, nil
}

// Run dials the coordinator, registers, and serves dispatched partitions
// until Shutdown (returns nil) or context cancellation (returns the context
// error). A control link that dies while ctx is live — the coordinator
// reaped this worker as lagging, or the connection broke — does not end
// the worker: it abandons its in-flight epoch, redials (bounded by Retry),
// and registers again, so an alive worker rejoins the pool instead of
// draining it. Run returns an error when that redial or its handshake
// fails, when the coordinator closes the link gracefully (it is shutting
// down), or when a control message cannot be decoded.
func (w *Worker) Run(ctx context.Context) error {
	for {
		if rejoin, err := w.serve(ctx); !rejoin {
			return err
		}
	}
}

// serve runs one control-link session: dial, register, and serve events
// until the link ends. rejoin reports that the link died with ctx still
// live and the worker should register again.
func (w *Worker) serve(ctx context.Context) (rejoin bool, err error) {
	events := make(chan workerEvent, 64)
	conn, err := transport.DialRetry(ctx, w.cfg.Transport, w.cfg.Coord, w.cfg.Retry)
	if err != nil {
		return false, fmt.Errorf("orch: worker %s dial coordinator: %w", w.cfg.Name, err)
	}
	link, err := transport.NewLink(conn, transport.LinkConfig{
		Node: 0, Ctrl: true,
		Heartbeat: w.cfg.Heartbeat, PeerTimeout: w.cfg.PeerTimeout,
	}, &workerHandler{events: events})
	if err != nil {
		return false, fmt.Errorf("orch: worker %s handshake: %w", w.cfg.Name, err)
	}
	if !link.CtrlNegotiated() {
		link.Close()
		return false, fmt.Errorf("orch: worker %s: coordinator did not negotiate the control plane", w.cfg.Name)
	}
	w.link = link
	defer w.closeListeners()
	defer link.Close()
	if err := w.send(Register{Name: w.cfg.Name}); err != nil {
		return false, err
	}

	var run *epochRun
	for {
		select {
		case <-ctx.Done():
			w.stopRun(run)
			return false, ctx.Err()
		case ev := <-events:
			switch {
			case ev.closed:
				w.stopRun(run)
				if ctx.Err() != nil {
					return false, ctx.Err()
				}
				if ev.err != nil {
					return true, nil
				}
				return false, fmt.Errorf("orch: worker %s lost coordinator: link closed", w.cfg.Name)
			case ev.err != nil:
				return false, fmt.Errorf("orch: worker %s control decode: %w", w.cfg.Name, ev.err)
			}
			switch m := ev.msg.(type) {
			case Welcome:
				// Identity is informational; specs carry slots.
				w.id.Store(m.ID)
			case Prepare:
				if err := w.prepare(m.Epoch); err != nil {
					w.send(Fail{Epoch: m.Epoch, Msg: err.Error()})
				}
			case Task:
				if run != nil {
					w.stopRun(run)
				}
				run = w.start(ctx, m)
			case Abort:
				if run != nil && run.epoch == m.Epoch {
					w.stopRun(run)
					run = nil
				}
				w.dropListener(m.Epoch)
				w.send(AbortOK{Epoch: m.Epoch})
			case Shutdown:
				w.stopRun(run)
				return false, nil
			}
		}
	}
}

// prepare binds the fresh data-plane listener for an epoch and announces
// its address. A fresh listener per epoch fences connections from
// aborted epochs out of the new one: stale peers hold addresses nobody
// listens on anymore.
func (w *Worker) prepare(epoch uint32) error {
	ln, err := w.cfg.Transport.Listen(w.cfg.DataAddr(epoch))
	if err != nil {
		return fmt.Errorf("bind data listener: %w", err)
	}
	w.mu.Lock()
	w.lns[epoch] = ln
	w.mu.Unlock()
	return w.send(Ready{Epoch: epoch, Addr: ln.Addr()})
}

func (w *Worker) takeListener(epoch uint32) transport.Listener {
	w.mu.Lock()
	defer w.mu.Unlock()
	ln := w.lns[epoch]
	delete(w.lns, epoch)
	return ln
}

func (w *Worker) dropListener(epoch uint32) {
	if ln := w.takeListener(epoch); ln != nil {
		ln.Close()
	}
}

func (w *Worker) closeListeners() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, ln := range w.lns {
		ln.Close()
	}
	w.lns = map[uint32]transport.Listener{}
}

// start launches one epoch's partition execution and reports Done or Fail
// when it finishes. The run owns its listener; an Abort cancels the
// context and the executor unwinds every blocked actor.
func (w *Worker) start(ctx context.Context, t Task) *epochRun {
	rctx, cancel := context.WithCancel(ctx)
	run := &epochRun{epoch: t.Epoch, cancel: cancel, done: make(chan struct{})}
	ln := w.takeListener(t.Epoch)
	go func() {
		defer close(run.done)
		defer cancel()
		if ln != nil {
			defer ln.Close()
		} else {
			w.send(Fail{Epoch: t.Epoch, Msg: "task for an unprepared epoch"})
			return
		}
		ks, err := w.cfg.Kernels(t.Spec)
		if err != nil {
			w.send(Fail{Epoch: t.Epoch, Msg: err.Error()})
			return
		}
		res, err := spi.ExecutePartition(t.Spec, ks.Kernels, spi.DistOptions{
			Transport: w.cfg.Transport, Listener: ln,
			Retry: w.cfg.Retry, Context: rctx,
			Reconnect: w.cfg.Reconnect,
			Heartbeat: w.cfg.Heartbeat, PeerTimeout: w.cfg.PeerTimeout,
			SendTimeout: w.cfg.SendTimeout,
			State:       ks.Hooks, Obs: w.cfg.Obs,
		})
		if err != nil {
			if rctx.Err() == nil {
				w.send(Fail{Epoch: t.Epoch, Msg: err.Error()})
			}
			return
		}
		done := Done{
			Epoch: t.Epoch, Tails: res.Tails, State: res.State,
			Firings: map[string]uint32{}, ProcNS: res.ProcNS,
		}
		if ks.Collect != nil {
			done.Digests = ks.Collect()
		}
		for name, n := range res.Firings {
			done.Firings[name] = uint32(n)
		}
		w.send(done)
	}()
	return run
}

func (w *Worker) stopRun(run *epochRun) {
	if run == nil {
		return
	}
	run.cancel()
	<-run.done
}

func (w *Worker) send(msg any) error {
	op, payload := Encode(msg)
	return w.link.SendCtrl(op, payload)
}
