package netserver

import (
	"testing"
	"time"

	"mlorass/internal/lorawan"
	"mlorass/internal/mac"
)

func testMAC(t *testing.T, withADR bool) *MAC {
	t.Helper()
	var ctrl *mac.Controller
	if withADR {
		var err error
		ctrl, err = mac.NewController(mac.DefaultADRConfig(), 4)
		if err != nil {
			t.Fatal(err)
		}
	}
	sched, err := mac.NewScheduler(2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	return &MAC{ADR: ctrl, Sched: sched}
}

func testTiming() RxTiming {
	return RxTiming{
		RX1Delay: time.Second,
		RX2Delay: 2 * time.Second,
		RX1Air:   50 * time.Millisecond,
		RX2Air:   1500 * time.Millisecond,
	}
}

func TestMACOnUplinkConfirmedAlwaysAnswers(t *testing.T) {
	m := testMAC(t, false)
	plan, ok := m.OnUplink(0, 1, 5, lorawan.DR5, 0, true, 10*time.Second, testTiming())
	if !ok {
		t.Fatal("confirmed uplink got no downlink despite an open budget")
	}
	if !plan.Ack || plan.HasCmd {
		t.Fatalf("plan = %+v, want plain ack", plan)
	}
	if plan.Gateway != 1 || plan.Device != 0 {
		t.Fatalf("plan addressed %d via %d", plan.Device, plan.Gateway)
	}
	if plan.Window != mac.WindowRX1 || plan.Start != 11*time.Second || plan.AirTime != 50*time.Millisecond {
		t.Fatalf("plan window/start/air = %v/%v/%v", plan.Window, plan.Start, plan.AirTime)
	}
}

func TestMACOnUplinkUnconfirmedOnlyOnCommand(t *testing.T) {
	m := testMAC(t, true)
	// Below MinHistory: no command, no downlink.
	for i := 0; i < 3; i++ {
		if _, ok := m.OnUplink(0, 0, 30, lorawan.DR0, 0, false, 0, testTiming()); ok {
			t.Fatal("downlink scheduled before ADR had enough history")
		}
	}
	// Fourth strong uplink: command due, downlink scheduled.
	plan, ok := m.OnUplink(0, 0, 30, lorawan.DR0, 0, false, time.Minute, testTiming())
	if !ok || !plan.HasCmd || plan.Ack {
		t.Fatalf("plan = %+v ok=%v, want command-only downlink", plan, ok)
	}
	if plan.Cmd.DataRate <= lorawan.DR0 {
		t.Fatalf("strong link commanded %v", plan.Cmd.DataRate)
	}
	if m.Commands != 1 {
		t.Fatalf("Commands = %d, want 1", m.Commands)
	}
}

func TestMACOnUplinkBudgetExhaustion(t *testing.T) {
	m := testMAC(t, false)
	tm := testTiming()
	// First ack on gateway 0 charges 50ms/0.1 = 500ms from RX1: busy until
	// 1.5s past the uplink end.
	if _, ok := m.OnUplink(0, 0, 5, lorawan.DR5, 0, true, 0, tm); !ok {
		t.Fatal("first ack rejected")
	}
	// A second uplink ending 100ms later: RX1 at 1.1s is blocked, RX2 at
	// 2.1s is open — charged 1.5s/0.1 = 15s.
	plan, ok := m.OnUplink(1, 0, 5, lorawan.DR5, 0, true, 100*time.Millisecond, tm)
	if !ok || plan.Window != mac.WindowRX2 {
		t.Fatalf("second ack plan %+v ok=%v, want RX2", plan, ok)
	}
	// A third within the silent period: dropped, counted by the scheduler.
	if _, ok := m.OnUplink(2, 0, 5, lorawan.DR5, 0, true, 200*time.Millisecond, tm); ok {
		t.Fatal("third ack fit a fully blocked gateway")
	}
	if st := m.Sched.Stats(); st.Dropped != 1 || st.RX1 != 1 || st.RX2 != 1 {
		t.Fatalf("scheduler stats %+v", st)
	}
	// The other gateway's budget is independent.
	if _, ok := m.OnUplink(3, 1, 5, lorawan.DR5, 0, true, 200*time.Millisecond, tm); !ok {
		t.Fatal("gateway budgets not independent")
	}
}

func TestServerAttachMAC(t *testing.T) {
	s := New(0)
	if s.MAC() != nil {
		t.Fatal("fresh server has a MAC")
	}
	m := testMAC(t, true)
	s.AttachMAC(m)
	if s.MAC() != m {
		t.Fatal("AttachMAC did not install")
	}
	s.AttachMAC(nil)
	if s.MAC() != nil {
		t.Fatal("detach failed")
	}
}
