package bpf

import "repro/internal/telemetry"

// verdictCounters holds one program's bpf_verdicts_total{prog,verdict}
// series, resolved at Load time.
type verdictCounters struct {
	aborted, drop, pass, other *telemetry.Counter
}

func newVerdictCounters(prog string) verdictCounters {
	reg := telemetry.Default()
	c := func(verdict string) *telemetry.Counter {
		return reg.Counter("bpf_verdicts_total", telemetry.L("prog", prog), telemetry.L("verdict", verdict))
	}
	return verdictCounters{
		aborted: c("aborted"),
		drop:    c("drop"),
		pass:    c("pass"),
		other:   c("other"),
	}
}

func (vc verdictCounters) count(v Verdict) {
	switch v {
	case VerdictAborted:
		vc.aborted.Inc()
	case VerdictDrop:
		vc.drop.Inc()
	case VerdictPass:
		vc.pass.Inc()
	default:
		vc.other.Inc()
	}
}
