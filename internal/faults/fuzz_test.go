package faults

import (
	"sort"
	"testing"
)

// FuzzParse feeds arbitrary specs to Parse. It must never panic, and every
// spec it accepts must survive a round trip through Plan.String: the
// canonical rendering re-parses to an equal plan.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil {
			if p != nil {
				t.Fatalf("Parse(%q) returned a plan with error %v", spec, err)
			}
			return
		}
		canon := p.String()
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(%q) accepted, but its rendering %q fails: %v", spec, canon, err)
		}
		if !plansEqual(p, again) {
			t.Fatalf("Parse(%q) = %+v, but its rendering %q re-parses to %+v", spec, p, canon, again)
		}
	})
}

// plansEqual compares plans the way they act: kill rules apply
// independently, so their order only matters among rules of one rank, the
// order String keeps.
func plansEqual(a, b *Plan) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Seed != b.Seed || a.NoiseSigma != b.NoiseSigma || a.Jitter != b.Jitter ||
		len(a.Kills) != len(b.Kills) {
		return false
	}
	ka, kb := byRank(a.Kills), byRank(b.Kills)
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

func byRank(kills []Kill) []Kill {
	out := append([]Kill(nil), kills...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Rank < out[j].Rank })
	return out
}
