package eval

import (
	"testing"
	"time"
)

func TestFig6aShape(t *testing.T) {
	res := MeasureFig6a([]int{5000, 10000, 20000}, 10)
	for _, cfg := range Fig6aConfigs {
		pts := res.Curves[cfg]
		if len(pts) != 3 {
			t.Fatalf("%s: %d points", cfg, len(pts))
		}
		// Linearity: doubling routes roughly doubles memory.
		ratio := float64(pts[2].Bytes) / float64(pts[1].Bytes)
		if ratio < 1.5 || ratio > 2.6 {
			t.Errorf("%s: growth ratio %.2f not ~2", cfg, ratio)
		}
		if res.BytesPerRoute(cfg) <= 0 {
			t.Errorf("%s: non-positive B/route", cfg)
		}
	}
	if !(res.BytesPerRoute(Fig6aConfigs[0]) < res.BytesPerRoute(Fig6aConfigs[1]) &&
		res.BytesPerRoute(Fig6aConfigs[1]) < res.BytesPerRoute(Fig6aConfigs[2])) {
		t.Errorf("Fig 6a ordering violated: %v / %v / %v",
			res.BytesPerRoute(Fig6aConfigs[0]), res.BytesPerRoute(Fig6aConfigs[1]), res.BytesPerRoute(Fig6aConfigs[2]))
	}
}

func TestFig6bShape(t *testing.T) {
	res := MeasureFig6b(1 << 14)
	for _, cfg := range Fig6bConfigs {
		if res.PerUpdate[cfg] <= 0 {
			t.Fatalf("%s: non-positive per-update time", cfg)
		}
	}
	if !(res.PerUpdate["accept"] < res.PerUpdate["single-router-vbgp"]) {
		t.Errorf("accept (%v) should be cheaper than single-router (%v)",
			res.PerUpdate["accept"], res.PerUpdate["single-router-vbgp"])
	}
	// CPU projection is linear by construction; sanity-check scale.
	if cpu := res.CPUAtRate("single-router-vbgp", 4000); cpu <= 0 || cpu > 1 {
		t.Errorf("projected CPU at 4000/s = %v", cpu)
	}
}

func TestBackboneEnvelope(t *testing.T) {
	res, err := MeasureBackbone(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 6 {
		t.Fatalf("pairs = %d", len(res.Pairs))
	}
	if res.Min < 40 || res.Max > 800 || res.Avg < res.Min || res.Avg > res.Max {
		t.Errorf("envelope min=%.0f avg=%.0f max=%.0f", res.Min, res.Avg, res.Max)
	}
}

func TestAMSIXScaleSmall(t *testing.T) {
	res, err := MeasureAMSIX(100, 5) // 8 members, 1 bilateral
	if err != nil {
		t.Fatal(err)
	}
	if res.Members != 8 || res.RouteServers != 4 {
		t.Fatalf("profile %+v", res)
	}
	want := res.Members * 5 * res.RouteServers
	if res.Routes != want {
		t.Errorf("routes = %d, want %d", res.Routes, want)
	}
	if res.BytesPerRoute <= 0 {
		t.Error("no memory accounting")
	}
}

func TestFootprintCounts(t *testing.T) {
	res := MeasureFootprint(10)
	if res.PoPs != 13 || res.ASNs != 8 || res.Prefixes != 40 {
		t.Errorf("configured constants: %+v", res)
	}
	ams := res.PerIXP["AMS-IX"]
	if ams[0] != 85 || ams[1] != 10 {
		t.Errorf("AMS-IX scaled counts %v", ams)
	}
	if res.TotalPeers == 0 || res.PeerConeUnion < res.TotalPeers {
		t.Errorf("peers=%d coneUnion=%d", res.TotalPeers, res.PeerConeUnion)
	}
	// Paper's mix ordering: transit >= access >= content.
	if !(res.TypePercent["transit"] >= res.TypePercent["content"]) {
		t.Errorf("type mix %v", res.TypePercent)
	}
}

func TestUpdateLoadProjection(t *testing.T) {
	res := MeasureUpdateLoad(MeasureFig6b(1 << 15))
	if res.MeanCPU <= 0 || res.P99CPU <= res.MeanCPU {
		t.Errorf("CPU projections mean=%v p99=%v", res.MeanCPU, res.P99CPU)
	}
	if res.P99CPU > 0.5 {
		t.Errorf("p99 CPU %v exceeds the headroom claim", res.P99CPU)
	}
	_ = time.Second
}
