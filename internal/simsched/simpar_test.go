package simsched

import (
	"reflect"
	"testing"
	"testing/quick"

	"memthrottle/internal/core"
	"memthrottle/internal/workload"
)

// simParCfg is domCfg with the sharded parallel simulation switched on.
func simParCfg(domains int) Config {
	c := domCfg(domains)
	c.SimPar = true
	return c
}

// TestSimParMatchesSerialProperty is the determinism contract of the
// sharded simulation: for random programs, seeds, domain counts, noise
// levels and MTL settings, a SimPar run must reproduce the serial run's
// entire Result — totals, phase times, per-MTL means, idle accounting
// and the recorded timeline — byte for byte. The merge-mode group
// numbers events through one shared sequence counter and selects the
// global (due, seq) minimum each step, so the event interleaving is the
// single-engine one by construction; this property test is the check
// that the construction holds under everything the runner throws at it.
func TestSimParMatchesSerialProperty(t *testing.T) {
	prop := func(phaseSeeds []uint16, kRaw, domRaw uint8, seed int64, trace bool) bool {
		prog := randomProgram(phaseSeeds)
		if prog == nil {
			return true
		}
		domains := int(domRaw)%MaxMemDomains + 1
		k := int(kRaw)%4 + 1
		mk := func(simPar bool) Result {
			c := domCfg(domains)
			c.SimPar = simPar
			c.Seed = seed
			c.NoiseSigma = 0.01
			c.RecordTrace = trace
			return Run(prog, c, core.Fixed{K: k})
		}
		serial, par := mk(false), mk(true)
		return reflect.DeepEqual(serial, par)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSimParMatchesSerialDynamic covers the adaptive policies, whose
// MTL decisions depend on the exact pair-completion order — the most
// order-sensitive consumer of the event interleaving.
func TestSimParMatchesSerialDynamic(t *testing.T) {
	prog := synth(1.2, 60)
	for domains := 1; domains <= MaxMemDomains; domains++ {
		mk := func(simPar bool) Result {
			c := domCfg(domains)
			c.SimPar = simPar
			c.NoiseSigma = 0.01
			c.RecordTrace = true
			return Run(prog, c, core.NewDynamic(core.NewModel(4), 8))
		}
		serial, par := mk(false), mk(true)
		if !reflect.DeepEqual(serial, par) {
			t.Errorf("domains=%d: SimPar dynamic run diverged from serial\nserial: %+v\npar:    %+v",
				domains, serial, par)
		}
	}
}

// TestSimParMatchesSerialServe extends the identity to the open-loop
// server and the mixed adversarial runner, which share the per-domain
// pool wiring with the closed-loop scheduler.
func TestSimParMatchesSerialServe(t *testing.T) {
	inputs := map[string]func(Config) MixResult{
		// Arrival processes are stateful, so each run builds its own.
		"serve": func(c Config) MixResult {
			return ServeRun(c, ServeSpec{
				Arrivals: workload.NewPoisson(3000, 77),
				Jobs:     120,
				Gather:   float64(footprint),
				Compute:  tm1(),
				Queue:    16,
			}, core.Fixed{K: 2})
		},
		"mix-blacklist": func(c Config) MixResult {
			return MixRun(c, MixSpec{
				Streams: []Stream{mixVictim(3000, 120, 77), mixFlood(2500, 60, 79)},
				Queue:   16,
			}, core.NewPolicyThrottler(core.NewBlacklist(core.Fixed{K: 2}, core.BlacklistOptions{}), 16, 4))
		},
	}
	for name, run := range inputs {
		for domains := 2; domains <= MaxMemDomains; domains++ {
			mk := func(simPar bool) MixResult {
				c := domCfg(domains)
				c.SimPar = simPar
				c.NoiseSigma = 0.01
				return run(c)
			}
			serial, par := mk(false), mk(true)
			if !reflect.DeepEqual(serial, par) {
				t.Errorf("%s, domains=%d: SimPar run diverged from serial", name, domains)
			}
		}
	}
}
