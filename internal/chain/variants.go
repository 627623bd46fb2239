package chain

import (
	"math"

	"efficsense/internal/adc"
	"efficsense/internal/blocks"
	"efficsense/internal/cs"
	"efficsense/internal/dsp"
	"efficsense/internal/power"
)

// This file wires the two alternative compressive-sensing front-ends the
// paper's Section III invites designers to compare against the passive
// charge-sharing chain: a fully digital CS system (Fig 1a chain plus a MAC
// compressor after the ADC, refs [2]/[12]) and an active analog CS system
// (OTA integrators instead of passive sharing, ref [10]'s counterpoint).

// DigitalCS is the digital compressive-sensing chain: LNA → S&H → SAR at
// the full Nyquist rate → digital y = Φ·x → reduced-rate transmitter. It
// saves transmission energy like the analog CS chain but pays the full
// ADC/S&H power and a MAC unit — the trade the paper's Table I literature
// ([2], [12]) analyses. Its front half is exactly the Fig 1a chain, so it
// embeds a Baseline for the LNA, sample & hold and SAR.
type DigitalCS struct {
	*Baseline
	cfg     CSConfig
	phi     *cs.SRBM
	rec     *cs.MethodReconstructor
	accBits int
}

// NewDigitalCS builds the digital CS chain. It panics if M is not set.
func NewDigitalCS(cfg CSConfig) *DigitalCS {
	return NewDigitalCSGroup(cfg, []int{cfg.Bits})[0]
}

// NewDigitalCSGroup builds one digital CS chain per ADC resolution in
// bits, each otherwise configured by cfg (whose Bits is ignored). Neither
// the sensing matrix nor the reconstructor depends on the resolution, so
// the chains share one of each: a batch group pays for the reconstruction
// dictionary once. It panics if M is not set.
func NewDigitalCSGroup(cfg CSConfig, bits []int) []*DigitalCS {
	common := cfg.Common
	cfg = cfg.withDefaults()
	if cfg.M <= 0 || cfg.M > cfg.NPhi {
		panic("chain: digital CS requires 0 < M <= NPhi")
	}
	phi := cs.GenerateSRBM(cfg.M, cfg.NPhi, cfg.Sparsity, cfg.Seed)
	maxCount := maxRowCount(phi)
	rec := cfg.newReconstructor(phi.Dense())
	out := make([]*DigitalCS, len(bits))
	for i, b := range bits {
		common.Bits = b
		c := cfg
		c.Bits = b
		out[i] = &DigitalCS{
			Baseline: NewBaseline(common),
			cfg:      c,
			phi:      phi,
			rec:      rec,
			accBits:  power.AccumulatorBits(b, maxCount),
		}
	}
	return out
}

// Run processes an electrode-scale waveform.
func (d *DigitalCS) Run(input []float64, inputRate float64) Output {
	return d.RunGrid(dsp.Resample(input, inputRate, d.cfg.GridRate()))
}

// RunGrid is Run for a grid-rate input.
func (d *DigitalCS) RunGrid(grid []float64) Output {
	digital := d.Baseline.RunGrid(grid).Samples
	// Exact digital compression; the MAC has no analog imperfections.
	y := cs.DigitalEncode(d.phi, digital)
	return d.output(d.rec.Reconstruct(y), digital)
}

// FinishSession completes a digital CS run from the amplified waveform of
// FrontSession (the embedded Baseline's LNA half): sample & hold and SAR
// conversion through this chain's stateful converter, the MAC, then
// sparse reconstruction into dst.
func (d *DigitalCS) FinishSession(s *EvalSession, amplified, dst []float64) Output {
	s.dec = d.digitize(s, amplified, s.dec)
	s.yq = cs.DigitalEncodeInto(s.yq, d.phi, s.dec)
	return d.output(d.rec.ReconstructInto(dst, s.yq, &s.rs), s.dec)
}

// output wraps a reconstruction with the power of the Nyquist-rate
// conversion that fed it.
func (d *DigitalCS) output(recon, digital []float64) Output {
	return Output{
		Samples:  recon,
		Rate:     d.cfg.Sys.FSample(),
		Gain:     d.gain,
		Power:    d.PowerBreakdown(dsp.RMS(digital), dsp.Mean(digital)),
		AreaCaps: d.Area(),
	}
}

// PowerBreakdown evaluates the digital-CS power: the full Fig 1a chain at
// Nyquist rate, plus the MAC unit and matrix shift register, with the
// transmitter at the compressed word rate and accumulator width. The
// capacitor area is the embedded Baseline's: the digital variant adds no
// analog capacitors beyond the Fig 1a chain.
func (d *DigitalCS) PowerBreakdown(vinRMS, vinMean float64) power.Breakdown {
	cfg := d.cfg
	fclk, fs := cfg.Sys.FClk(cfg.Bits), cfg.Sys.FSample()
	lnaP := power.LNAParams{
		GBW:       d.gain * cfg.Sys.LNABandwidth(),
		CLoad:     d.sampleCap,
		NoiseRMS:  cfg.LNANoise,
		Bandwidth: cfg.Sys.LNABandwidth(),
		FClk:      fclk,
	}
	wordRate := fs * float64(cfg.M) / float64(cfg.NPhi)
	addsPerSecond := float64(cfg.Sparsity) * fs
	return power.Breakdown{
		power.CompLNA:         power.LNA(cfg.Tech, cfg.Sys, lnaP),
		power.CompSampleHold:  power.SampleHold(cfg.Tech, cfg.Sys, cfg.Bits, fclk),
		power.CompComparator:  power.Comparator(cfg.Tech, cfg.Sys, cfg.Bits, fclk, fs, 0),
		power.CompSARLogic:    power.SARLogic(cfg.Tech, cfg.Sys, cfg.Bits, fclk, fs),
		power.CompDAC:         power.DAC(cfg.Sys, cfg.Bits, fclk, cfg.Tech.CUnitMin, vinRMS, vinMean),
		power.CompTransmitter: power.TransmitterRate(cfg.Tech, d.accBits, wordRate),
		power.CompCSEncoder: power.DigitalMAC(cfg.Tech, cfg.Sys, d.accBits, addsPerSecond) +
			power.CSEncoderLogic(cfg.Tech, cfg.Sys, cfg.NPhi, fclk),
		power.CompLeakage: power.Leakage(cfg.Tech, cfg.Sys, 2<<cfg.Bits),
	}
}

// ActiveCS is the active analog CS chain: one OTA integrator per
// measurement row performs exact accumulation (scaled by 1/maxCount to
// stay in range), then the reduced-rate SAR digitises the integrator
// outputs. The OTAs dominate its power — the paper's motivation for the
// passive charge-sharing alternative.
type ActiveCS struct {
	cfg      CSConfig
	gain     float64
	intGain  float64 // integrator scale Cs/Cint, sized for the busiest row
	otaNoise float64
	enc      *cs.ActiveEncoder
	rec      *cs.MethodReconstructor
	sar      *adc.SAR
	lna      *blocks.LNA
	maxCount int
}

// NewActiveCS builds the active CS chain. It panics if M is not set.
func NewActiveCS(cfg CSConfig) *ActiveCS {
	return NewActiveCSGroup(cfg, []int{cfg.Bits})[0]
}

// NewActiveCSGroup builds one active CS chain per ADC resolution in bits,
// each otherwise configured by cfg (whose Bits is ignored). The sensing
// matrix, integrator scaling and reconstructor do not depend on the
// resolution, so the chains share one reconstructor; each keeps its own
// encoder noise stream and converter. It panics if M is not set.
func NewActiveCSGroup(cfg CSConfig, bits []int) []*ActiveCS {
	cfg = cfg.withDefaults()
	if cfg.M <= 0 || cfg.M > cfg.NPhi {
		panic("chain: active CS requires 0 < M <= NPhi")
	}
	phi := cs.GenerateSRBM(cfg.M, cfg.NPhi, cfg.Sparsity, cfg.Seed)
	maxCount := max(maxRowCount(phi), 1)
	// Sampling kT/C of the integrator input capacitor (C_int/CRatio).
	csIn := cfg.CHold / cfg.CRatio
	otaNoise := math.Sqrt(cfg.Tech.KT() / csIn)
	const finiteGain = 1e-3 // 60 dB OTA: per-step loss 1/A0
	encCfg := cs.ActiveEncoderConfig{
		Phi:       phi,
		OTANoise:  otaNoise,
		GainError: finiteGain,
		Seed:      cfg.Seed,
	}
	intGain := 1 / float64(maxCount)
	// Reconstruction knows the nominal (scaled, finite-gain) map.
	a := cs.NewActiveEncoder(encCfg).EffectiveMatrix()
	for i := range a {
		for j := range a[i] {
			a[i][j] *= intGain
		}
	}
	rec := cfg.newReconstructor(a)
	gain := cfg.lnaGain()
	out := make([]*ActiveCS, len(bits))
	for i, b := range bits {
		c := cfg
		c.Bits = b
		out[i] = &ActiveCS{
			cfg:      c,
			gain:     gain,
			intGain:  intGain,
			otaNoise: otaNoise,
			enc:      cs.NewActiveEncoder(encCfg),
			rec:      rec,
			maxCount: maxCount,
			sar:      newSAR(c.Common, c.Sys.VFS),
			lna:      newLNA(c.Common, gain),
		}
	}
	return out
}

// Gain returns the LNA gain.
func (c *ActiveCS) Gain() float64 { return c.gain }

// MeasurementRate returns the CS-side ADC rate (Hz).
func (c *ActiveCS) MeasurementRate() float64 {
	return c.cfg.Sys.FSample() * float64(c.cfg.M) / float64(c.cfg.NPhi)
}

// Run processes an electrode-scale waveform.
func (c *ActiveCS) Run(input []float64, inputRate float64) Output {
	return c.RunGrid(dsp.Resample(input, inputRate, c.cfg.GridRate()))
}

// RunGrid is Run for a grid-rate input.
func (c *ActiveCS) RunGrid(grid []float64) Output {
	cfg := c.cfg
	ctx := blocks.NewContext(cfg.GridRate(), cfg.Seed)
	amplified := c.lna.Process(ctx, grid)
	sampled := dsp.Decimate(amplified, cfg.SimOversample)
	y := c.enc.Encode(sampled)
	dsp.Scale(y, c.intGain)
	yq := c.sar.Convert(y)
	return c.output(c.rec.Reconstruct(yq), yq)
}

// FrontSession runs the active CS front half — LNA, ideal decimation, the
// integrator bank and its 1/maxCount scale — over one grid record. The
// scale is applied here, once, so the measurements every member of a
// batch group finishes from are already in converter range.
func (c *ActiveCS) FrontSession(s *EvalSession, grid []float64) []float64 {
	sampled := s.decimate(s.lnaProcess(c.lna, c.cfg.GridRate(), grid), c.cfg.SimOversample)
	s.y = c.enc.EncodeInto(s.y, sampled)
	dsp.Scale(s.y, c.intGain)
	return s.y
}

// FinishSession completes an active CS run from a measurement vector: SAR
// conversion through this chain's stateful converter, then sparse
// reconstruction into dst.
func (c *ActiveCS) FinishSession(s *EvalSession, y, dst []float64) Output {
	s.yq = c.sar.ConvertInto(s.yq, y)
	return c.output(c.rec.ReconstructInto(dst, s.yq, &s.rs), s.yq)
}

// output wraps a reconstruction with the power of the measurement
// conversion that fed it.
func (c *ActiveCS) output(recon, yq []float64) Output {
	return Output{
		Samples:  recon,
		Rate:     c.cfg.Sys.FSample(),
		Gain:     c.gain,
		Power:    c.PowerBreakdown(dsp.RMS(yq), dsp.Mean(yq)),
		AreaCaps: c.Area(),
	}
}

// PowerBreakdown evaluates the active-CS power: the integrator bank
// replaces the passive network; ADC and transmitter run at the reduced
// measurement rate; the matrix shift register is shared with the passive
// design.
func (c *ActiveCS) PowerBreakdown(vinRMS, vinMean float64) power.Breakdown {
	cfg := c.cfg
	fs := cfg.Sys.FSample()
	fsCS := c.MeasurementRate()
	fclkCS := float64(cfg.Bits+1) * fsCS
	fclkIn := cfg.Sys.FClk(cfg.Bits)
	lnaP := power.LNAParams{
		GBW:       c.gain * cfg.Sys.LNABandwidth(),
		CLoad:     cfg.CHold / cfg.CRatio, // LNA drives the sampling caps
		NoiseRMS:  cfg.LNANoise,
		Bandwidth: cfg.Sys.LNABandwidth(),
		FClk:      fs,
	}
	// Each integrator settles once per input sample; its noise budget is
	// relaxed by the averaging over its mean accumulation count.
	meanCount := float64(cfg.Sparsity) * float64(cfg.NPhi) / float64(cfg.M)
	intP := power.IntegratorParams{
		GBW:       4 * fs,
		CInt:      cfg.CHold,
		NoiseRMS:  cfg.LNANoise * math.Sqrt(meanCount),
		Bandwidth: fs / 2,
	}
	switches := 4*(cfg.M+cfg.Sparsity) + (2 << cfg.Bits)
	return power.Breakdown{
		power.CompLNA:         power.LNA(cfg.Tech, cfg.Sys, lnaP),
		power.CompIntegrators: power.IntegratorBank(cfg.Tech, cfg.Sys, cfg.M, intP),
		power.CompComparator:  power.Comparator(cfg.Tech, cfg.Sys, cfg.Bits, fclkCS, fsCS, 0),
		power.CompSARLogic:    power.SARLogic(cfg.Tech, cfg.Sys, cfg.Bits, fclkCS, fsCS),
		power.CompDAC:         power.DAC(cfg.Sys, cfg.Bits, fclkCS, cfg.Tech.CUnitMin, vinRMS, vinMean),
		power.CompTransmitter: power.Transmitter(cfg.Tech, cfg.Bits, fclkCS),
		power.CompCSEncoder:   power.CSEncoderLogic(cfg.Tech, cfg.Sys, cfg.NPhi, fclkIn),
		power.CompLeakage:     power.Leakage(cfg.Tech, cfg.Sys, switches),
	}
}

// Area returns the capacitor area: the integrator array plus the ADC.
func (c *ActiveCS) Area() float64 {
	cfg := c.cfg
	total := power.CSEncoderCapacitance(cfg.Sparsity, cfg.M, cfg.CHold/cfg.CRatio, cfg.CHold) +
		power.ADCCapacitance(cfg.Bits, cfg.Tech.CUnitMin, 0)
	return power.CapCount(cfg.Tech, total)
}
