package gpu

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"xsp/internal/vclock"
)

func TestArchString(t *testing.T) {
	for a, want := range map[Arch]string{Maxwell: "Maxwell", Pascal: "Pascal", Volta: "Volta", Turing: "Turing", Arch(7): "Arch(7)"} {
		if got := a.String(); got != want {
			t.Errorf("Arch(%d) = %q, want %q", int(a), got, want)
		}
	}
}

// The paper's Table VII reports the ideal arithmetic intensity of each
// system; the simulator must reproduce those exact values from the specs.
func TestIdealArithmeticIntensityMatchesTableVII(t *testing.T) {
	want := map[string]float64{
		"Quadro_RTX": 26.12,
		"Tesla_V100": 17.44,
		"Tesla_P100": 12.70,
		"Tesla_P4":   28.34,
		"Tesla_M60":  30.12,
	}
	// Tolerance 0.35: the paper's published intensities for Tesla_P4
	// (28.34) and Tesla_M60 (30.12) do not exactly equal its own
	// FLOPS/bandwidth columns (5.5/0.192=28.65, 4.8/0.160=30.00); the
	// authors evidently used unrounded device constants.
	for _, s := range Systems {
		got := s.IdealArithmeticIntensity()
		if math.Abs(got-want[s.Name]) > 0.35 {
			t.Errorf("%s ideal intensity = %.2f, want %.2f", s.Name, got, want[s.Name])
		}
	}
	if (Spec{}).IdealArithmeticIntensity() != 0 {
		t.Error("zero spec should have zero intensity")
	}
}

func TestSystemByName(t *testing.T) {
	s, err := SystemByName("Tesla_V100")
	if err != nil || s.Arch != Volta {
		t.Fatalf("SystemByName = %+v, %v", s, err)
	}
	if _, err := SystemByName("Tesla_K80"); err == nil {
		t.Fatal("expected error for unknown system")
	}
}

func TestDim3(t *testing.T) {
	d := Dim3{98, 2, 2}
	if d.String() != "[98,2,2]" {
		t.Errorf("String = %q", d.String())
	}
}

func TestKernelArithmeticIntensity(t *testing.T) {
	k := Kernel{Flops: 1000, DramRead: 300, DramWrite: 200}
	if got := k.ArithmeticIntensity(); got != 2 {
		t.Errorf("intensity = %v", got)
	}
	if (Kernel{Flops: 10}).ArithmeticIntensity() != 0 {
		t.Error("zero-byte kernel should report 0 intensity")
	}
}

func TestDurationComputeBound(t *testing.T) {
	// 15.7 GFlop at 15.7 TFLOPS and full efficiency = 1ms compute,
	// negligible memory -> compute-bound.
	k := Kernel{Flops: 15.7e9, DramRead: 1e3, ComputeEff: 1, MemEff: 1}
	got := TeslaV100.Duration(k)
	want := time.Millisecond + TeslaV100.KernelGap
	if got != want {
		t.Errorf("Duration = %v, want %v", got, want)
	}
}

func TestDurationMemoryBound(t *testing.T) {
	// 900 MB at 900 GB/s = 1ms memory, negligible compute.
	k := Kernel{Flops: 10, DramRead: 450e6, DramWrite: 450e6, ComputeEff: 1, MemEff: 1}
	got := TeslaV100.Duration(k)
	want := time.Millisecond + TeslaV100.KernelGap
	if got != want {
		t.Errorf("Duration = %v, want %v", got, want)
	}
}

func TestDurationEfficiencyScales(t *testing.T) {
	k := Kernel{Flops: 15.7e9, ComputeEff: 0.5, MemEff: 1}
	got := TeslaV100.Duration(k)
	want := 2*time.Millisecond + TeslaV100.KernelGap
	if got != want {
		t.Errorf("half-efficiency Duration = %v, want %v", got, want)
	}
	// Out-of-range efficiencies are treated as 1.
	k2 := Kernel{Flops: 15.7e9, ComputeEff: 7, MemEff: -2}
	if TeslaV100.Duration(k2) != time.Millisecond+TeslaV100.KernelGap {
		t.Error("out-of-range efficiency not clamped")
	}
}

func TestEmptyKernelCostsGap(t *testing.T) {
	if got := TeslaV100.Duration(Kernel{}); got != TeslaV100.KernelGap {
		t.Errorf("empty kernel Duration = %v", got)
	}
}

func TestMemcpyDuration(t *testing.T) {
	// 12 GB at 12 GB/s = 1s.
	got := TeslaV100.MemcpyDuration(12e9)
	want := time.Second + TeslaV100.KernelGap
	if got != want {
		t.Errorf("MemcpyDuration = %v, want %v", got, want)
	}
	if TeslaV100.MemcpyDuration(0) != TeslaV100.KernelGap {
		t.Error("zero-byte copy should cost only the gap")
	}
}

func TestStreamOrdering(t *testing.T) {
	st := &Stream{}
	s1, e1 := st.Enqueue(100, 50)
	if s1 != 100 || e1 != 150 {
		t.Fatalf("first enqueue = [%v,%v]", s1, e1)
	}
	// Enqueued earlier than the tail: starts at the tail.
	s2, e2 := st.Enqueue(120, 30)
	if s2 != 150 || e2 != 180 {
		t.Fatalf("second enqueue = [%v,%v]", s2, e2)
	}
	// Enqueued after an idle gap: starts at the enqueue instant.
	s3, _ := st.Enqueue(500, 10)
	if s3 != 500 {
		t.Fatalf("third enqueue start = %v", s3)
	}
	if st.Busy() != 90 {
		t.Fatalf("Busy = %v", st.Busy())
	}
}

func TestDeviceStreams(t *testing.T) {
	d := NewDevice(TeslaV100)
	if d.DefaultStream().ID() != 0 {
		t.Fatal("default stream id != 0")
	}
	s1 := d.NewStream()
	if s1.ID() != 1 {
		t.Fatal("NewStream bookkeeping wrong")
	}
	d.Execute(d.DefaultStream(), Kernel{Flops: 15.7e9, ComputeEff: 1}, 0)
	d.Execute(s1, Kernel{Flops: 15.7e9, ComputeEff: 1}, 0)
	if d.MaxTail() != d.DefaultStream().Tail() {
		t.Fatal("MaxTail mismatch")
	}
}

func TestDeviceReset(t *testing.T) {
	d := NewDevice(TeslaV100)
	d.NewStream()
	d.Execute(d.DefaultStream(), Kernel{Flops: 1e9, ComputeEff: 1}, 0)
	d.Reset()
	if d.MaxTail() != 0 || d.NewStream().ID() != 1 {
		t.Fatal("Reset incomplete")
	}
}

// Property: a kernel's duration never beats the roofline bound for its
// intensity — the classification (memory- vs compute-bound) implied by
// Duration always agrees with comparing intensity to the ridge point.
func TestRooflineClassificationProperty(t *testing.T) {
	f := func(flopsRaw, bytesRaw uint32) bool {
		flops := float64(flopsRaw)*1e6 + 1
		bytes := float64(bytesRaw)*1e3 + 1
		k := Kernel{Flops: flops, DramRead: bytes, ComputeEff: 1, MemEff: 1}
		d := TeslaV100.Duration(k) - TeslaV100.KernelGap
		computeTime := flops / TeslaV100.PeakFLOPS()
		memTime := bytes / TeslaV100.MemBW()
		wantSec := math.Max(computeTime, memTime)
		gotSec := d.Seconds()
		return math.Abs(gotSec-wantSec) < 2e-9 // ns rounding
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: stream enqueues never overlap and never go backwards.
func TestStreamSerializationProperty(t *testing.T) {
	f := func(ops []struct {
		At uint16
		D  uint16
	}) bool {
		st := &Stream{}
		var prevEnd int64
		for _, op := range ops {
			s, e := st.Enqueue(vclock.Time(op.At), time.Duration(op.D))
			if int64(s) < prevEnd || e < s {
				return false
			}
			prevEnd = int64(e)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
