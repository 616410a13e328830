package r3bench

import (
	"os/exec"
	"strings"
	"testing"
)

// TestProgramsSmoke runs the example programs and command-line tools the
// way a user would (`go run`), so the executor's LIMIT, correlated and
// profiled shapes are also exercised from outside the engine package: each
// program must exit 0 and print something.
func TestProgramsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run")
	}
	for _, c := range []struct {
		name  string
		args  []string
		stdin string
		want  string // a fragment the output must contain
	}{
		{name: "quickstart", args: []string{"./examples/quickstart"}, want: "tuple-cpu"},
		{name: "salesorder", args: []string{"./examples/salesorder"}, want: "buffer hit ratio"},
		{name: "r3bench table6", args: []string{"./cmd/r3bench", "-exp", "table6", "-sf", "0.002"}, want: "wall time"},
		// powertest drives tpcd.RDBMS.RunQuery beside the four report strategies.
		{name: "powertest", args: []string{"./examples/powertest", "-sf", "0.001"}, want: "vs DB"},
		{name: "warehouse", args: []string{"./examples/warehouse", "-sf", "0.001"}, want: "total"},
		{
			name: "sqlshell",
			args: []string{"./cmd/sqlshell", "-load", "0.001"},
			stdin: `SELECT o_orderkey FROM orders LIMIT 3;
SELECT COUNT(*) FROM orders WHERE EXISTS (SELECT l_orderkey FROM lineitem WHERE l_orderkey = o_orderkey AND l_quantity > 49);
EXPLAIN ANALYZE SELECT l_returnflag, COUNT(*) FROM lineitem WHERE l_quantity < 10 GROUP BY l_returnflag;
quit
`,
			want: "sort-group",
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			cmd := exec.Command("go", append([]string{"run"}, c.args...)...)
			cmd.Stdin = strings.NewReader(c.stdin)
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("go run %v: %v\n%s", c.args, err, out)
			}
			if !strings.Contains(string(out), c.want) {
				t.Errorf("go run %v: output lacks %q:\n%s", c.args, c.want, out)
			}
			if strings.Contains(string(out), "error:") {
				t.Errorf("go run %v reported a statement error:\n%s", c.args, out)
			}
		})
	}
}
