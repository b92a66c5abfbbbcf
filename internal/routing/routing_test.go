package routing

import (
	"math"
	"testing"
	"testing/quick"

	"mlorass/internal/lorawan"
)

const (
	testPhiMin = 1e-4
	testPhiMax = 1.0
)

func mustPolicy(t *testing.T, s Scheme) Policy {
	t.Helper()
	p, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewRejectsUnknownScheme(t *testing.T) {
	if _, err := New(Scheme(42)); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestSchemeNamesMatchPaper(t *testing.T) {
	want := map[Scheme]string{
		SchemeNoRouting: "NoRouting",
		SchemeRCAETX:    "RCA-ETX",
		SchemeROBC:      "ROBC",
	}
	for s, name := range want {
		if s.String() != name {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), name)
		}
		if !s.Valid() {
			t.Errorf("%v invalid", s)
		}
		p := mustPolicy(t, s)
		if p.Scheme() != s {
			t.Errorf("policy scheme mismatch for %v", s)
		}
	}
	if Scheme(0).Valid() {
		t.Error("zero scheme valid")
	}
}

func TestNoRoutingNeverForwards(t *testing.T) {
	p := mustPolicy(t, SchemeNoRouting)
	local := LocalState{RCAETX: 1e9, Phi: testPhiMin, QueueLen: 500}
	frame := lorawan.Frame{AdvertisedRCAETX: 1, AdvertisedQueueLen: 0}
	if d := p.OnOverhear(local, frame, 1, testPhiMin, testPhiMax); d.Forward {
		t.Fatal("NoRouting forwarded")
	}
}

func TestRCAETXForwardsOnEq1(t *testing.T) {
	p := mustPolicy(t, SchemeRCAETX)
	local := LocalState{RCAETX: 1000, QueueLen: 30}
	frame := lorawan.Frame{AdvertisedRCAETX: 100}
	d := p.OnOverhear(local, frame, 50, testPhiMin, testPhiMax)
	if !d.Forward {
		t.Fatal("Eq.1 satisfied but no forward")
	}
	if d.Count != 30 {
		t.Fatalf("greedy Count = %d, want whole queue", d.Count)
	}
}

func TestRCAETXKeepsWhenNeighbourWorse(t *testing.T) {
	p := mustPolicy(t, SchemeRCAETX)
	local := LocalState{RCAETX: 100, QueueLen: 30}
	frame := lorawan.Frame{AdvertisedRCAETX: 90}
	if d := p.OnOverhear(local, frame, 20, testPhiMin, testPhiMax); d.Forward {
		t.Fatal("forwarded although 90+20 > 100")
	}
}

func TestRCAETXEmptyQueue(t *testing.T) {
	p := mustPolicy(t, SchemeRCAETX)
	local := LocalState{RCAETX: 1000, QueueLen: 0}
	frame := lorawan.Frame{AdvertisedRCAETX: 1}
	if d := p.OnOverhear(local, frame, 1, testPhiMin, testPhiMax); d.Forward {
		t.Fatal("forwarded with empty queue")
	}
}

func TestRCAETXDeadLink(t *testing.T) {
	p := mustPolicy(t, SchemeRCAETX)
	local := LocalState{RCAETX: 1000, QueueLen: 5}
	frame := lorawan.Frame{AdvertisedRCAETX: 1}
	if d := p.OnOverhear(local, frame, math.Inf(1), testPhiMin, testPhiMax); d.Forward {
		t.Fatal("forwarded over dead link")
	}
}

func TestROBCForwardsDelta(t *testing.T) {
	p := mustPolicy(t, SchemeROBC)
	// Listener: 20 messages, φ = 0.5. Broadcaster advertises RCAETX 2 s
	// (φ = 0.5 clamped) and queue 10 → ω = 40 − 20 > 0, δ = 20 − 10 = 10.
	local := LocalState{RCAETX: 2, Phi: 0.5, QueueLen: 20}
	frame := lorawan.Frame{AdvertisedRCAETX: 2, AdvertisedQueueLen: 10}
	d := p.OnOverhear(local, frame, 1, testPhiMin, testPhiMax)
	if !d.Forward || d.Count != 10 {
		t.Fatalf("decision = %+v, want forward 10", d)
	}
}

func TestROBCKeepsOnNonPositiveWeight(t *testing.T) {
	p := mustPolicy(t, SchemeROBC)
	local := LocalState{RCAETX: 2, Phi: 0.5, QueueLen: 10}
	frame := lorawan.Frame{AdvertisedRCAETX: 2, AdvertisedQueueLen: 10}
	if d := p.OnOverhear(local, frame, 1, testPhiMin, testPhiMax); d.Forward {
		t.Fatal("equal ω forwarded (must beat ω(x,x)=0)")
	}
}

func TestROBCQualityCorrection(t *testing.T) {
	// Equal queues, but the broadcaster has far better gateway quality:
	// its φ-corrected backlog is smaller, so data should flow to it.
	p := mustPolicy(t, SchemeROBC)
	local := LocalState{RCAETX: 1000, Phi: 0.001, QueueLen: 10}
	frame := lorawan.Frame{AdvertisedRCAETX: 2, AdvertisedQueueLen: 10}
	d := p.OnOverhear(local, frame, 1, testPhiMin, testPhiMax)
	if !d.Forward {
		t.Fatal("did not forward toward much better gateway quality")
	}
}

func TestROBCDeadLink(t *testing.T) {
	p := mustPolicy(t, SchemeROBC)
	local := LocalState{RCAETX: 2, Phi: 0.5, QueueLen: 20}
	frame := lorawan.Frame{AdvertisedRCAETX: 2, AdvertisedQueueLen: 0}
	if d := p.OnOverhear(local, frame, math.Inf(1), testPhiMin, testPhiMax); d.Forward {
		t.Fatal("ROBC forwarded over dead link")
	}
	if d := p.OnOverhear(local, frame, math.NaN(), testPhiMin, testPhiMax); d.Forward {
		t.Fatal("ROBC forwarded over NaN link")
	}
}

func TestROBCEmptyQueue(t *testing.T) {
	p := mustPolicy(t, SchemeROBC)
	local := LocalState{RCAETX: 1000, Phi: 0.001, QueueLen: 0}
	frame := lorawan.Frame{AdvertisedRCAETX: 1, AdvertisedQueueLen: 0}
	if d := p.OnOverhear(local, frame, 1, testPhiMin, testPhiMax); d.Forward {
		t.Fatal("forwarded with empty queue")
	}
}

func TestROBCInfiniteAdvertisedETX(t *testing.T) {
	// A broadcaster that has never seen a gateway advertises +Inf; its φ
	// clamps to φmin. Forward only if the weight still favours it.
	p := mustPolicy(t, SchemeROBC)
	local := LocalState{RCAETX: 10, Phi: 0.1, QueueLen: 5}
	frame := lorawan.Frame{AdvertisedRCAETX: math.Inf(1), AdvertisedQueueLen: 0}
	d := p.OnOverhear(local, frame, 1, testPhiMin, testPhiMax)
	// ω = 5/0.1 − 0/φmin = 50 > 0 — ROBC would still push toward an
	// empty queue. δ = 5 − 0 = 5.
	if !d.Forward || d.Count != 5 {
		t.Fatalf("decision = %+v", d)
	}
}

// Property: no policy ever forwards more than the listener holds, and
// NoRouting never forwards at all.
func TestQuickPolicyBounds(t *testing.T) {
	policies := []Policy{mustPolicy(t, SchemeNoRouting), mustPolicy(t, SchemeRCAETX), mustPolicy(t, SchemeROBC)}
	f := func(qx, qy uint16, ownETX, advETX, link float64) bool {
		local := LocalState{
			RCAETX:   math.Abs(ownETX),
			Phi:      0.1,
			QueueLen: int(qx % 2000),
		}
		frame := lorawan.Frame{
			AdvertisedRCAETX:   math.Abs(advETX),
			AdvertisedQueueLen: int(qy % 2000),
		}
		for _, p := range policies {
			d := p.OnOverhear(local, frame, math.Abs(link), testPhiMin, testPhiMax)
			if p.Scheme() == SchemeNoRouting && d.Forward {
				return false
			}
			if d.Forward && (d.Count <= 0 || d.Count > local.QueueLen) {
				return false
			}
			if !d.Forward && d.Count != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestForwardImpliesWants pins Wants as OnOverhear's link-free necessary
// condition for every scheme: over a grid of edge inputs (zero and
// negative queues, NaN and ±Inf advertised RCA-ETX and φ, φ at and past
// the clamps) crossed with every kind of link a LinkModel returns (zero,
// finite, past ROBC's dead-link bound, +Inf, NaN), a forward never comes
// without Wants; then the same over random inputs.
func TestForwardImpliesWants(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	etxs := []float64{0, 1e-300, 0.5, 1, 2, 30, 1e4, 1e19, inf, -inf, nan, -1}
	phis := []float64{testPhiMin, testPhiMax, 0.5, 0, -1, 2, inf, -inf, nan}
	queues := []int{0, 1, 5, 12, 500, -3}
	links := []float64{0, 1e-300, 0.5, 20, 1e18, 2e18, inf, nan}
	policies := []Policy{mustPolicy(t, SchemeNoRouting), mustPolicy(t, SchemeRCAETX), mustPolicy(t, SchemeROBC)}
	forwards := map[Scheme]int{}
	for _, p := range policies {
		for _, own := range etxs {
			for _, phi := range phis {
				for _, qx := range queues {
					for _, adv := range etxs {
						for _, qy := range queues {
							for _, link := range links {
								local := LocalState{RCAETX: own, Phi: phi, QueueLen: qx}
								frame := lorawan.Frame{AdvertisedRCAETX: adv, AdvertisedQueueLen: qy}
								d := p.OnOverhear(local, frame, link, testPhiMin, testPhiMax)
								if !d.Forward {
									continue
								}
								forwards[p.Scheme()]++
								if !p.Wants(local, frame, testPhiMin, testPhiMax) {
									t.Fatalf("%v forwards %d over link %v without wanting to: local %+v, advertised RCA-ETX %v, queue %d",
										p.Scheme(), d.Count, link, local, adv, qy)
								}
							}
						}
					}
				}
			}
		}
	}
	// The grid must reach forwarding decisions, or the implication is
	// vacuous.
	if forwards[SchemeRCAETX] == 0 || forwards[SchemeROBC] == 0 {
		t.Fatalf("the edge grid forwarded %v times per scheme", forwards)
	}
	f := func(qx, qy int16, own, adv, phi, link float64) bool {
		local := LocalState{RCAETX: own, Phi: phi, QueueLen: int(qx)}
		frame := lorawan.Frame{AdvertisedRCAETX: adv, AdvertisedQueueLen: int(qy)}
		for _, p := range policies {
			for _, l := range []float64{math.Abs(link), 0, inf, nan} {
				if p.OnOverhear(local, frame, l, testPhiMin, testPhiMax).Forward && !p.Wants(local, frame, testPhiMin, testPhiMax) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}
