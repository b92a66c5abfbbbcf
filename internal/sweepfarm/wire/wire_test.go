package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"mlorass/internal/sweepfarm"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// roundTrip seals msg, frames it, reads it back and opens it into out.
func roundTrip(t *testing.T, kind Kind, msg, out any) {
	t.Helper()
	env, err := seal(kind, msg)
	if err != nil {
		t.Fatalf("seal %s: %v", kind, err)
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, env, 0); err != nil {
		t.Fatalf("write %s: %v", kind, err)
	}
	got, err := ReadFrame(&buf, 0)
	if err != nil {
		t.Fatalf("read %s: %v", kind, err)
	}
	if err := open(got, kind, out); err != nil {
		t.Fatalf("open %s: %v", kind, err)
	}
}

func TestCodecRoundTripsEveryMessage(t *testing.T) {
	cell := sweepfarm.Cell{Index: 7, Key: strings.Repeat("ab", 32), Label: "urban/sf7"}

	var cr sweepfarm.ClaimRequest
	roundTrip(t, KindClaimRequest, sweepfarm.ClaimRequest{Worker: "w1"}, &cr)
	if cr.Worker != "w1" {
		t.Fatalf("ClaimRequest = %+v", cr)
	}

	var crep sweepfarm.ClaimReply
	roundTrip(t, KindClaimReply,
		sweepfarm.ClaimReply{OK: true, Cell: cell, LeaseID: 99, TTL: 30 * time.Second}, &crep)
	if !crep.OK || crep.LeaseID != 99 || crep.TTL != 30*time.Second || crep.Cell != cell {
		t.Fatalf("ClaimReply = %+v", crep)
	}

	var hr sweepfarm.HeartbeatRequest
	roundTrip(t, KindHeartbeatRequest,
		sweepfarm.HeartbeatRequest{Worker: "w1", LeaseID: 99, SentAt: t0}, &hr)
	if hr.LeaseID != 99 || !hr.SentAt.Equal(t0) {
		t.Fatalf("HeartbeatRequest = %+v", hr)
	}

	var hrep sweepfarm.HeartbeatReply
	roundTrip(t, KindHeartbeatReply, sweepfarm.HeartbeatReply{OK: true}, &hrep)
	if !hrep.OK {
		t.Fatalf("HeartbeatReply = %+v", hrep)
	}

	var co sweepfarm.CompleteRequest
	roundTrip(t, KindCompleteRequest, sweepfarm.CompleteRequest{
		Worker: "w1", LeaseID: 99, Cell: cell,
		Artifact: []byte{0x00, 0x01, 0xfe}, Cached: true, Failed: "boom"}, &co)
	if co.Cell != cell || !bytes.Equal(co.Artifact, []byte{0x00, 0x01, 0xfe}) || !co.Cached || co.Failed != "boom" {
		t.Fatalf("CompleteRequest = %+v", co)
	}

	var corep sweepfarm.CompleteReply
	roundTrip(t, KindCompleteReply, sweepfarm.CompleteReply{Accepted: true}, &corep)
	if !corep.Accepted {
		t.Fatalf("CompleteReply = %+v", corep)
	}
}

// frame hand-builds a length-prefixed frame around payload.
func frame(payload []byte) []byte {
	buf := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(buf, uint32(len(payload)))
	copy(buf[4:], payload)
	return buf
}

func validFrame(t *testing.T) []byte {
	t.Helper()
	env, err := seal(KindClaimRequest, sweepfarm.ClaimRequest{Worker: "w1"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, env, 0); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReadFrameRejectsHostileInput(t *testing.T) {
	valid := validFrame(t)
	huge := make([]byte, 4)
	binary.BigEndian.PutUint32(huge, uint32(DefaultMaxFrame)+1)
	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"empty stream", nil, io.EOF},
		{"torn length prefix", valid[:2], ErrBadFrame},
		{"torn payload", valid[:len(valid)-3], ErrBadFrame},
		{"zero length", frame(nil), ErrBadFrame},
		{"oversized length", huge, ErrFrameTooBig},
		{"not json", frame([]byte("not-json")), ErrBadFrame},
		{"wrong version", frame([]byte(`{"v":2,"kind":"claim","body":{}}`)), ErrBadFrame},
		{"unknown kind", frame([]byte(`{"v":1,"kind":"gossip","body":{}}`)), ErrBadFrame},
	}
	for _, c := range cases {
		_, err := ReadFrame(bytes.NewReader(c.in), 0)
		if !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
	// And the valid frame still reads, so the cases above fail for the
	// reasons they claim.
	if _, err := ReadFrame(bytes.NewReader(valid), 0); err != nil {
		t.Fatalf("valid frame: %v", err)
	}
}

func TestWriteFrameRefusesOversizedMessage(t *testing.T) {
	env, err := seal(KindCompleteRequest, sweepfarm.CompleteRequest{
		Worker: "w1", Artifact: bytes.Repeat([]byte{1}, 1024)})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, env, 64); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("err = %v, want ErrFrameTooBig", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("refused frame still wrote %d bytes", buf.Len())
	}
}

// scriptTransport answers with canned replies and records requests.
type scriptTransport struct {
	mu         sync.Mutex
	claims     []sweepfarm.ClaimRequest
	claimRep   sweepfarm.ClaimReply
	claimErr   error
	heartbeats []sweepfarm.HeartbeatRequest
	completes  []sweepfarm.CompleteRequest
}

func (s *scriptTransport) Claim(req sweepfarm.ClaimRequest) (sweepfarm.ClaimReply, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.claims = append(s.claims, req)
	return s.claimRep, s.claimErr
}

func (s *scriptTransport) Heartbeat(req sweepfarm.HeartbeatRequest) (sweepfarm.HeartbeatReply, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.heartbeats = append(s.heartbeats, req)
	return sweepfarm.HeartbeatReply{OK: true}, nil
}

func (s *scriptTransport) Complete(req sweepfarm.CompleteRequest) (sweepfarm.CompleteReply, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.completes = append(s.completes, req)
	return sweepfarm.CompleteReply{Accepted: true}, nil
}

// serve starts a Server around tr on a loopback listener and returns its
// address plus the server (closed via t.Cleanup).
func serve(t *testing.T, tr sweepfarm.Transport) (string, *Server) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(tr, ServerConfig{Logf: t.Logf})
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return ln.Addr().String(), srv
}

func TestClientServerRoundTrip(t *testing.T) {
	cell := sweepfarm.Cell{Index: 3, Key: strings.Repeat("cd", 32), Label: "rural/sf9"}
	tr := &scriptTransport{claimRep: sweepfarm.ClaimReply{
		OK: true, Cell: cell, LeaseID: 17, TTL: 45 * time.Second}}
	addr, _ := serve(t, tr)
	c := NewClient(ClientConfig{Addr: addr})
	defer c.Close()

	rep, err := c.Claim(sweepfarm.ClaimRequest{Worker: "w2"})
	if err != nil {
		t.Fatalf("Claim: %v", err)
	}
	if !rep.OK || rep.LeaseID != 17 || rep.Cell != cell || rep.TTL != 45*time.Second {
		t.Fatalf("ClaimReply = %+v", rep)
	}
	if hrep, err := c.Heartbeat(sweepfarm.HeartbeatRequest{Worker: "w2", LeaseID: 17, SentAt: t0}); err != nil || !hrep.OK {
		t.Fatalf("Heartbeat: %+v, %v", hrep, err)
	}
	if crep, err := c.Complete(sweepfarm.CompleteRequest{Worker: "w2", LeaseID: 17, Cell: cell}); err != nil || !crep.Accepted {
		t.Fatalf("Complete: %+v, %v", crep, err)
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.claims) != 1 || tr.claims[0].Worker != "w2" {
		t.Fatalf("server saw claims %+v", tr.claims)
	}
	if len(tr.heartbeats) != 1 || !tr.heartbeats[0].SentAt.Equal(t0) {
		t.Fatalf("server saw heartbeats %+v", tr.heartbeats)
	}
	if len(tr.completes) != 1 || tr.completes[0].Cell != cell {
		t.Fatalf("server saw completes %+v", tr.completes)
	}
}

// TestClientSurfacesCoordinatorRejection pins the ErrLost boundary: a
// decoded error reply is a definitive rejection, not a lost message.
func TestClientSurfacesCoordinatorRejection(t *testing.T) {
	tr := &scriptTransport{claimErr: errors.New("sweep finished yesterday")}
	addr, _ := serve(t, tr)
	c := NewClient(ClientConfig{Addr: addr})
	defer c.Close()

	_, err := c.Claim(sweepfarm.ClaimRequest{Worker: "w2"})
	if err == nil || errors.Is(err, sweepfarm.ErrLost) {
		t.Fatalf("err = %v, want a definitive non-ErrLost rejection", err)
	}
	if !strings.Contains(err.Error(), "sweep finished yesterday") {
		t.Fatalf("err = %v, want the coordinator's message carried over", err)
	}
}

func TestClientMapsConnectionFailuresToErrLost(t *testing.T) {
	// A refused dial: grab a port and close it again.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	c := NewClient(ClientConfig{Addr: addr, DialTimeout: 500 * time.Millisecond})
	if _, err := c.Claim(sweepfarm.ClaimRequest{Worker: "w2"}); !errors.Is(err, sweepfarm.ErrLost) {
		t.Fatalf("refused dial: err = %v, want ErrLost", err)
	}

	// A server that hangs up after reading the request: reply lost.
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln2.Close()
	go func() {
		conn, err := ln2.Accept()
		if err != nil {
			return
		}
		ReadFrame(conn, 0)
		conn.Close()
	}()
	c2 := NewClient(ClientConfig{Addr: ln2.Addr().String()})
	if _, err := c2.Claim(sweepfarm.ClaimRequest{Worker: "w2"}); !errors.Is(err, sweepfarm.ErrLost) {
		t.Fatalf("reset reply: err = %v, want ErrLost", err)
	}

	// A server that never replies at all: the exchange deadline fires.
	ln3, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln3.Close()
	go func() {
		conn, err := ln3.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		io.Copy(io.Discard, conn)
	}()
	c3 := NewClient(ClientConfig{Addr: ln3.Addr().String(), Timeout: 200 * time.Millisecond})
	if _, err := c3.Claim(sweepfarm.ClaimRequest{Worker: "w2"}); !errors.Is(err, sweepfarm.ErrLost) {
		t.Fatalf("stalled reply: err = %v, want ErrLost", err)
	}
}

// TestClientRetriesStaleConnection proves the transparent redial: a
// connection left over from an earlier call may be dead (coordinator
// restarted), and the next call must succeed on a fresh dial instead of
// surfacing ErrLost for a coordinator that is alive and well.
func TestClientRetriesStaleConnection(t *testing.T) {
	tr := &scriptTransport{claimRep: sweepfarm.ClaimReply{Done: true}}
	addr, _ := serve(t, tr)

	var mu sync.Mutex
	var conns []net.Conn
	c := NewClient(ClientConfig{Addr: addr, Dial: func(a string) (net.Conn, error) {
		conn, err := net.Dial("tcp", a)
		if err == nil {
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
		}
		return conn, err
	}})
	defer c.Close()

	if _, err := c.Claim(sweepfarm.ClaimRequest{Worker: "w2"}); err != nil {
		t.Fatalf("first Claim: %v", err)
	}
	// Kill the established conn out from under the client.
	mu.Lock()
	conns[0].Close()
	mu.Unlock()
	rep, err := c.Claim(sweepfarm.ClaimRequest{Worker: "w2"})
	if err != nil || !rep.Done {
		t.Fatalf("Claim over stale conn: %+v, %v — want a transparent redial", rep, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(conns) != 2 {
		t.Fatalf("dials = %d, want 2 (original + one redial)", len(conns))
	}
}

// TestServerPoisonsOnlyTheBadConnection sends garbage on one connection and
// a valid request on another: the garbled stream gets an error reply and a
// hangup, the good stream is unaffected.
func TestServerPoisonsOnlyTheBadConnection(t *testing.T) {
	tr := &scriptTransport{claimRep: sweepfarm.ClaimReply{Done: true}}
	addr, _ := serve(t, tr)

	bad, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	if _, err := bad.Write(frame([]byte(`{"v":1,"kind":"gossip"}`))); err != nil {
		t.Fatal(err)
	}
	bad.SetReadDeadline(time.Now().Add(2 * time.Second))
	env, err := ReadFrame(bad, 0)
	if err != nil {
		t.Fatalf("reading error reply: %v", err)
	}
	if env.Kind != KindError {
		t.Fatalf("reply kind = %q, want %q", env.Kind, KindError)
	}
	if _, err := ReadFrame(bad, 0); err == nil {
		t.Fatal("poisoned connection still open after error reply")
	}

	c := NewClient(ClientConfig{Addr: addr})
	defer c.Close()
	if rep, err := c.Claim(sweepfarm.ClaimRequest{Worker: "w2"}); err != nil || !rep.Done {
		t.Fatalf("good connection after poison: %+v, %v", rep, err)
	}
}

// TestServerDrainFinishesInFlightRequest proves Close is a drain, not a
// snap: a request already being handled gets its reply before the
// connection dies.
func TestServerDrainFinishesInFlightRequest(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	tr := &gateTransport{started: started, release: release}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(tr, ServerConfig{})
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	c := NewClient(ClientConfig{Addr: ln.Addr().String()})
	defer c.Close()
	callDone := make(chan error, 1)
	go func() {
		rep, err := c.Claim(sweepfarm.ClaimRequest{Worker: "w2"})
		if err == nil && !rep.Done {
			err = fmt.Errorf("reply = %+v, want Done", rep)
		}
		callDone <- err
	}()
	<-started
	closeDone := make(chan error, 1)
	go func() { closeDone <- srv.Close() }()
	close(release)
	if err := <-callDone; err != nil {
		t.Fatalf("in-flight call during drain: %v", err)
	}
	if err := <-closeDone; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	// And the drained server is really gone.
	if _, err := c.Claim(sweepfarm.ClaimRequest{Worker: "w2"}); !errors.Is(err, sweepfarm.ErrLost) {
		t.Fatalf("call after drain: %v, want ErrLost", err)
	}
}

// gateTransport blocks Claim until released, so a test can hold a request
// in flight.
type gateTransport struct {
	started chan struct{}
	release chan struct{}
	once    sync.Once
}

func (g *gateTransport) Claim(sweepfarm.ClaimRequest) (sweepfarm.ClaimReply, error) {
	g.once.Do(func() { close(g.started) })
	<-g.release
	return sweepfarm.ClaimReply{Done: true}, nil
}

func (g *gateTransport) Heartbeat(sweepfarm.HeartbeatRequest) (sweepfarm.HeartbeatReply, error) {
	return sweepfarm.HeartbeatReply{}, nil
}

func (g *gateTransport) Complete(sweepfarm.CompleteRequest) (sweepfarm.CompleteReply, error) {
	return sweepfarm.CompleteReply{}, nil
}

// TestEnvelopeJSONShape pins the on-wire document so a cross-version reader
// knows what to expect: {"v":1,"kind":...,"body":...}.
func TestEnvelopeJSONShape(t *testing.T) {
	env, err := seal(KindHeartbeatReply, sweepfarm.HeartbeatReply{OK: true})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if string(m["v"]) != "1" || string(m["kind"]) != `"heartbeat.reply"` {
		t.Fatalf("envelope = %s", raw)
	}
}

// BenchmarkFrameRoundTrip times one storeless completion through the codec:
// seal, WriteFrame, ReadFrame and decodeRequest of a Complete request
// carrying a 37 KB artefact inline, one quick cell's size.
func BenchmarkFrameRoundTrip(b *testing.B) {
	req := sweepfarm.CompleteRequest{Worker: "w1", LeaseID: 99,
		Cell: sweepfarm.Cell{Index: 7, Label: "urban/sf7"}, Artifact: make([]byte, 37_000)}
	var buf bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env, err := seal(KindCompleteRequest, req)
		if err != nil {
			b.Fatal(err)
		}
		if err := WriteFrame(&buf, env, 0); err != nil {
			b.Fatal(err)
		}
		got, err := ReadFrame(&buf, 0)
		if err != nil {
			b.Fatal(err)
		}
		out, err := decodeRequest(got)
		if err != nil {
			b.Fatal(err)
		}
		if n := len(out.(sweepfarm.CompleteRequest).Artifact); n != len(req.Artifact) {
			b.Fatalf("artefact came back %d bytes, want %d", n, len(req.Artifact))
		}
	}
}
