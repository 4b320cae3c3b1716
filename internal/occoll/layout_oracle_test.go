package occoll

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
)

// The layout-validation oracle: which configurations the MPB layout
// validators accept, over K ∈ 1..47, the chunk sizes below, double
// buffering on and off and Channels ∈ 0..4. testdata/layout_oracle.txt
// holds one line per (BufLines, double buffering, Channels) with two
// 47-character strings, K = 1..47 left to right: '1' where OC-Bcast's
// layout fits (core.Config.Validate), '1' where the whole one-sided
// family's does (Validate).
var oracleChunks = []int{1, 8, 32, 48, 96, 120, 125}

const oracleMaxK = 47

// oracleTable formats the acceptance table accept produces.
func oracleTable(accept func(c core.Config) (bcast, family bool)) string {
	var b strings.Builder
	for _, buf := range oracleChunks {
		for _, db := range []bool{false, true} {
			for ch := 0; ch <= 4; ch++ {
				var bc, fam [oracleMaxK]byte
				for k := 1; k <= oracleMaxK; k++ {
					ok1, ok2 := accept(core.Config{K: k, BufLines: buf, DoubleBuffer: db, Channels: ch})
					bc[k-1], fam[k-1] = bit(ok1), bit(ok2)
				}
				fmt.Fprintf(&b, "buf=%d db=%t ch=%d bcast=%s family=%s\n", buf, db, ch, bc[:], fam[:])
			}
		}
	}
	return b.String()
}

func bit(ok bool) byte {
	if ok {
		return '1'
	}
	return '0'
}

// TestLayoutValidationOracle: the layout table accepts exactly what the
// two validators it replaced accepted (testdata, recorded from them),
// apart from two deliberate changes:
//   - Channels ≥ 2 whose lanes do not fit: a chip can no longer be
//     built (New panics naming the colliding regions) instead of
//     failing on its first one-sided call;
//   - OC-Bcast layouts of exactly 252 lines: their top done flag sat on
//     RCCE's barrier line 251, two families' persistent flags on one
//     line, and the table rejects them.
//
// The bcast column is now "the table builds" (Config.Layout), the family
// column "the table builds with lanes" (Validate).
func TestLayoutValidationOracle(t *testing.T) {
	raw, err := os.ReadFile("testdata/layout_oracle.txt")
	if err != nil {
		t.Fatal(err)
	}
	recorded := map[string][2]string{}
	for _, ln := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		f := strings.Fields(ln)
		recorded[strings.Join(f[:3], " ")] = [2]string{strings.TrimPrefix(f[3], "bcast="), strings.TrimPrefix(f[4], "family=")}
	}
	lanes, barrier := 0, 0
	want := oracleTable(func(c core.Config) (bool, bool) {
		r := recorded[fmt.Sprintf("buf=%d db=%t ch=%d", c.BufLines, c.DoubleBuffer, c.Channels)]
		bcast, family := r[0][c.K-1] == '1', r[1][c.K-1] == '1'
		nb := 1
		if c.DoubleBuffer {
			nb = 2
		}
		switch {
		case bcast && c.Channels >= 2 && !family:
			bcast, lanes = false, lanes+1
		case bcast && nb*c.BufLines+1+c.K == 252:
			bcast, barrier = false, barrier+1
		}
		return bcast, family
	})
	got := oracleTable(func(c core.Config) (bool, bool) {
		_, err := c.Layout()
		return err == nil, Validate(c) == nil
	})
	if got != want {
		t.Fatalf("layout validation no longer matches the oracle; the build accepts:\n%s", got)
	}
	t.Logf("now rejected: %d multi-lane configurations whose lanes do not fit, %d whose flags reach RCCE's barrier line", lanes, barrier)
}
