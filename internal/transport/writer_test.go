package transport

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingHandler counts inbound traffic without retaining it, so
// tens of thousands of frames cost no memory.
type countingHandler struct {
	data   atomic.Int64
	closed chan error
}

func newCountingHandler() *countingHandler {
	return &countingHandler{closed: make(chan error, 1)}
}

func (h *countingHandler) HandleData(edge uint16, msg []byte)  { h.data.Add(1) }
func (h *countingHandler) HandleAck(edge uint16, count uint32) {}
func (h *countingHandler) HandleFin(edge uint16)               {}
func (h *countingHandler) HandleLinkClose(err error)           { h.closed <- err }

// goroutineDump renders every goroutine's stack for a failure message.
func goroutineDump() string {
	buf := make([]byte, 1<<16)
	return truncateStack(string(buf[:runtime.Stack(buf, true)]))
}

// TestReadPathNeverWrites: both ends of a synchronous net.Pipe link send
// DATA concurrently while every received frame owes a cumulative ack
// (ResendLimit 4 makes the ack interval 1). The senders meet at a barrier
// before every frame, so both frames land at once and both readers owe an
// ack while their senders are idle. A reader that wrote its own ack then
// would block on a peer whose reader is doing the same — nobody left
// reading, the link wedged.
// The readers must only record the owed ack and leave the write to the
// link writer, so every round finishes.
func TestReadPathNeverWrites(t *testing.T) {
	const (
		rounds = 3
		frames = 20000
		bound  = 10 * time.Second
	)
	tune := func(cfg *LinkConfig) { cfg.ResendLimit = 4 }
	for round := 0; round < rounds; round++ {
		hd, ha := newCountingHandler(), newCountingHandler()
		dialer, acceptor := batchLinkPair(t, NewLoopback(), "rpnw", tune, tune, hd, ha)
		if dialer.ackInterval() != 1 {
			t.Fatalf("ack interval %d, want 1", dialer.ackInterval())
		}
		stop := make(chan struct{})
		meet := func(mine, theirs chan struct{}) bool {
			select {
			case mine <- struct{}{}:
			case <-stop:
				return false
			}
			select {
			case <-theirs:
				return true
			case <-stop:
				return false
			}
		}
		var wg sync.WaitGroup
		errs := make(chan error, 2)
		send := func(l *Link, edge uint16, mine, theirs chan struct{}) {
			defer wg.Done()
			msg := []byte{byte(edge), 0, 1, 2, 3, 4, 5, 6}
			for i := 0; i < frames; i++ {
				if !meet(mine, theirs) {
					return
				}
				if err := l.SendData(edge, msg); err != nil {
					errs <- err
					return
				}
			}
		}
		dch, ach := make(chan struct{}, 1), make(chan struct{}, 1)
		wg.Add(2)
		go send(dialer, 7, dch, ach)
		go send(acceptor, 9, ach, dch)
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(bound):
			dump := goroutineDump()
			close(stop)
			dialer.Abort()
			acceptor.Abort()
			<-done
			select {
			case err := <-errs:
				t.Fatalf("round %d: send failed: %v", round, err)
			default:
			}
			t.Fatalf("round %d: bidirectional sends wedged after %v (received %d/%d, %d/%d)\n%s",
				round, bound, ha.data.Load(), frames, hd.data.Load(), frames, dump)
		}
		select {
		case err := <-errs:
			t.Fatalf("round %d: send failed: %v", round, err)
		default:
		}
		deadline := time.Now().Add(bound)
		for (ha.data.Load() < frames || hd.data.Load() < frames) && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if a, d := ha.data.Load(), hd.data.Load(); a != frames || d != frames {
			t.Fatalf("round %d: delivered %d and %d frames, want %d each", round, a, d, frames)
		}
		closeBoth(dialer, acceptor)
	}
}

// silentPeer listens on addr and, for the first connection, completes the
// listener side of the handshake (echoing the dialer's session token and
// advertising features), then never reads or writes again. The returned
// channel yields the peer's end of the connection.
func silentPeer(t *testing.T, tr Transport, addr string, features uint32) <-chan Conn {
	t.Helper()
	ln, err := tr.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	peer := make(chan Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		_, _, body, err := readFrame(c, DefaultMaxFrame)
		if err != nil {
			return
		}
		_, token, _, _, err := decodeHello(body)
		if err != nil {
			return
		}
		if err := writeFrame(c, frameHello, 0, encodeHello(1, token, testManifest(false), features)); err != nil {
			return
		}
		peer <- c
	}()
	return peer
}

// fillPipe sends DATA until a send fails, reporting the error on the
// returned channel. Against a peer that stopped reading, the first frame
// already blocks in Write holding the writer mutex.
func fillPipe(l *Link) <-chan error {
	done := make(chan error, 1)
	go func() {
		msg := make([]byte, 4096)
		msg[0] = 7
		for {
			if err := l.SendData(7, msg); err != nil {
				done <- err
				return
			}
		}
	}()
	return done
}

// TestHeartbeatDetectsPeerThatStopsReading: the peer negotiates
// heartbeats and then never reads, so a SendData blocks in Write holding
// the writer mutex. The failure detector must not queue behind it: the
// link fails on the heartbeat timeout within 2x PeerTimeout (plus
// scheduling slack), surfacing as a SendData error or a close error.
func TestHeartbeatDetectsPeerThatStopsReading(t *testing.T) {
	const (
		interval = 10 * time.Millisecond
		timeout  = 40 * time.Millisecond
		slack    = 250 * time.Millisecond
	)
	tr := NewLoopback()
	peerCh := silentPeer(t, tr, "hb-deaf", featHeartbeat)
	c, err := tr.Dial("hb-deaf")
	if err != nil {
		t.Fatal(err)
	}
	h := newCountingHandler()
	start := time.Now()
	l, err := NewLink(c, LinkConfig{
		Node: 0, Edges: testManifest(true),
		Heartbeat: interval, PeerTimeout: timeout, CloseTimeout: 50 * time.Millisecond,
	}, h)
	if err != nil {
		t.Fatal(err)
	}
	peer := <-peerCh
	defer peer.Close()
	defer l.Abort()
	if !l.HeartbeatsNegotiated() {
		t.Fatal("heartbeats not negotiated with a peer advertising them")
	}
	sendErr := fillPipe(l)
	var failure error
	select {
	case failure = <-sendErr:
	case failure = <-h.closed:
	case <-time.After(5 * time.Second):
		t.Fatalf("deaf peer never detected (stats %+v)\n%s", l.Stats(), goroutineDump())
	}
	if elapsed := time.Since(start); elapsed > 2*timeout+slack {
		t.Fatalf("deaf peer detected after %v, contract is 2x peer timeout (%v) plus %v slack",
			elapsed, 2*timeout, slack)
	}
	if failure == nil {
		t.Fatal("link closed cleanly, want a liveness failure")
	}
	if got := l.Stats().HeartbeatTimeouts; got != 1 {
		t.Fatalf("heartbeat timeouts = %d, want 1", got)
	}
}

// writeSignalConn announces each Write as it begins.
type writeSignalConn struct {
	Conn
	writing chan struct{}
}

func (c *writeSignalConn) Write(p []byte) (int, error) {
	select {
	case c.writing <- struct{}{}:
	default:
	}
	return c.Conn.Write(p)
}

// TestStatsReadersNeverWaitOnWrite: the per-edge ack tables are read by
// stats scrapes, which must answer while a SendData is blocked in Write
// toward a peer that stopped reading.
func TestStatsReadersNeverWaitOnWrite(t *testing.T) {
	tr := NewLoopback()
	peerCh := silentPeer(t, tr, "stats-deaf", 0)
	raw, err := tr.Dial("stats-deaf")
	if err != nil {
		t.Fatal(err)
	}
	c := &writeSignalConn{Conn: raw, writing: make(chan struct{}, 1)}
	l, err := NewLink(c, LinkConfig{Node: 0, Edges: testManifest(true), CloseTimeout: 50 * time.Millisecond},
		newCountingHandler())
	if err != nil {
		t.Fatal(err)
	}
	peer := <-peerCh
	defer peer.Close()
	defer l.Abort()
	<-c.writing // the HELLO
	sendErr := fillPipe(l)
	<-c.writing // the first DATA frame, which the peer never reads
	read := make(chan struct{})
	go func() {
		l.PiggybackedAcks()
		l.SuppressedAcks()
		close(read)
	}()
	select {
	case <-read:
	case <-time.After(100 * time.Millisecond):
		t.Fatalf("ack stats blocked behind a stuck write\n%s", goroutineDump())
	}
	select {
	case err := <-sendErr:
		t.Fatalf("send to a peer that stopped reading returned early: %v", err)
	default:
	}
}
