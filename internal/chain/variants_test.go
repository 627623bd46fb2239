package chain

import (
	"math"
	"testing"

	"efficsense/internal/cs"
	"efficsense/internal/dsp"
	"efficsense/internal/power"
)

func variantCfg(seed int64) CSConfig {
	return CSConfig{Common: testCommon(8, 5e-6, seed), M: 96, NPhi: 192}
}

func TestDigitalCSRunShapes(t *testing.T) {
	d := NewDigitalCS(variantCfg(31))
	in := testInput(5120)
	out := d.Run(in, 512)
	if math.Abs(out.Rate-537.6) > 1e-9 {
		t.Fatalf("rate %g", out.Rate)
	}
	if len(out.Samples)%192 != 0 {
		t.Fatalf("length %d not whole frames", len(out.Samples))
	}
	// Digital CS pays full ADC power: its S&H power matches the baseline's.
	base := NewBaseline(testCommon(8, 5e-6, 31)).Run(in, 512)
	if out.Power[power.CompSampleHold] != base.Power[power.CompSampleHold] {
		t.Fatal("digital CS should pay the full-rate S&H power")
	}
	// But the transmitter is compressed.
	if out.Power[power.CompTransmitter] >= base.Power[power.CompTransmitter] {
		t.Fatal("digital CS should transmit less than the baseline")
	}
	// And no analog capacitor array beyond the ADC.
	if out.AreaCaps != base.AreaCaps {
		t.Fatalf("digital CS area %g should equal baseline %g", out.AreaCaps, base.AreaCaps)
	}
}

func TestDigitalCSReconstructs(t *testing.T) {
	cfg := variantCfg(32)
	cfg.LNANoise = 2e-6
	d := NewDigitalCS(cfg)
	in := testInput(5120)
	out := d.Run(in, 512)
	ref := Reference(cfg.Common, in, 512)
	snr := dsp.SNRVersusReference(ref[:len(out.Samples)], out.Samples)
	if snr < 8 {
		t.Fatalf("digital CS reconstruction SNR = %g dB", snr)
	}
}

func TestActiveCSRunShapes(t *testing.T) {
	c := NewActiveCS(variantCfg(33))
	in := testInput(5120)
	out := c.Run(in, 512)
	if len(out.Samples)%192 != 0 {
		t.Fatalf("length %d not whole frames", len(out.Samples))
	}
	if out.Power[power.CompIntegrators] <= 0 {
		t.Fatal("integrator power missing")
	}
	// Transmitter compressed like the passive chain.
	want := 537.6 * 96 / 192 * 8 * 1e-9
	if math.Abs(out.Power[power.CompTransmitter]-want) > 1e-12 {
		t.Fatalf("active CS TX power %g, want %g", out.Power[power.CompTransmitter], want)
	}
}

func TestActiveCSReconstructs(t *testing.T) {
	cfg := variantCfg(34)
	cfg.LNANoise = 2e-6
	c := NewActiveCS(cfg)
	in := testInput(5120)
	out := c.Run(in, 512)
	ref := Reference(cfg.Common, in, 512)
	snr := dsp.SNRVersusReference(ref[:len(out.Samples)], out.Samples)
	if snr < 8 {
		t.Fatalf("active CS reconstruction SNR = %g dB", snr)
	}
}

func TestPassiveBeatsActiveAndDigitalOnPower(t *testing.T) {
	// The paper's Section III argument: the passive charge-sharing encoder
	// is the cheapest CS realisation — actives pay OTAs, digital pays the
	// full-rate ADC chain + MAC.
	in := testInput(2048)
	cfg := variantCfg(35)
	passive := NewCS(cfg).Run(in, 512).Power.Total()
	active := NewActiveCS(cfg).Run(in, 512).Power.Total()
	digital := NewDigitalCS(cfg).Run(in, 512).Power.Total()
	if passive >= active {
		t.Fatalf("passive %g should beat active %g", passive, active)
	}
	if passive >= digital {
		t.Fatalf("passive %g should beat digital %g", passive, digital)
	}
}

func TestVariantPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		f()
	}
	mustPanic("digital no M", func() { NewDigitalCS(CSConfig{Common: testCommon(8, 5e-6, 36)}) })
	mustPanic("active no M", func() { NewActiveCS(CSConfig{Common: testCommon(8, 5e-6, 36)}) })
}

func TestVariantGainsAndRates(t *testing.T) {
	cfg := variantCfg(37)
	d := NewDigitalCS(cfg)
	a := NewActiveCS(cfg)
	if d.Gain() != a.Gain() {
		t.Fatal("variants should share the baseline LNA gain")
	}
	if math.Abs(a.MeasurementRate()-537.6/2) > 1e-9 {
		t.Fatalf("active CS measurement rate %g", a.MeasurementRate())
	}
}

func TestCSReconMethodSelectable(t *testing.T) {
	in := testInput(3072)
	cfg := variantCfg(38)
	cfg.LNANoise = 2e-6
	ref := Reference(cfg.Common, in, 512)
	// Ridge has no sparsity prior, so its floor is lower than the greedy
	// methods'.
	floors := map[cs.Method]float64{cs.MethodOMP: 3, cs.MethodIHT: 3, cs.MethodRidge: 1.5}
	for method, floor := range floors {
		c := cfg
		c.ReconMethod = method
		out := NewCS(c).Run(in, 512)
		n := len(out.Samples)
		snr := dsp.SNRVersusReference(ref[:n], out.Samples[:n])
		if snr < floor {
			t.Errorf("%s reconstruction SNR = %g dB, below %g", method, snr, floor)
		}
	}
}

// TestVariantsHonourReconMethod pins that the digital and active CS
// chains recover with the configured method, as the passive chain does:
// a ridge-configured chain must not reproduce the OMP output.
func TestVariantsHonourReconMethod(t *testing.T) {
	grid := gridFor(testCommon(8, 2e-6, 39), 3072)
	for _, tc := range []struct {
		name string
		run  func(cfg CSConfig) Output
	}{
		{"cs-digital", func(cfg CSConfig) Output { return NewDigitalCS(cfg).RunGrid(grid) }},
		{"cs-active", func(cfg CSConfig) Output { return NewActiveCS(cfg).RunGrid(grid) }},
	} {
		cfg := variantCfg(39)
		cfg.LNANoise = 2e-6
		omp := tc.run(cfg)
		cfg.ReconMethod = cs.MethodRidge
		ridge := tc.run(cfg)
		if len(omp.Samples) == 0 || len(ridge.Samples) != len(omp.Samples) {
			t.Fatalf("%s: lengths %d (omp) and %d (ridge)", tc.name, len(omp.Samples), len(ridge.Samples))
		}
		same := true
		for i := range omp.Samples {
			if omp.Samples[i] != ridge.Samples[i] {
				same = false
				break
			}
		}
		if same {
			t.Errorf("%s: ridge output equals the OMP output; ReconMethod ignored", tc.name)
		}
	}
}
