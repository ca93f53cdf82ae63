package workload

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzCSVTrace feeds arbitrary bytes to the trace importer, and through it
// to the CSVStream reader it drains. Malformed traces must produce an error
// — never a panic — and accepted traces must survive an export/import round
// trip unchanged.
func FuzzCSVTrace(f *testing.F) {
	var buf bytes.Buffer
	seed := []Task{
		{ID: 0, Arrival: 0, CPU: 2, Mem: 1.5, Duration: 3, Source: Google},
		{ID: 1, Arrival: 4, CPU: 1, Mem: 0.5, Duration: 1, Source: Alibaba2017},
	}
	if err := ExportCSV(&buf, seed); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("id,arrival,cpu,mem_gib,duration,source\n")
	f.Add("id,arrival,cpu,mem_gib,duration,source\n1,2,3\n")
	f.Add("id,arrival,cpu,mem_gib,duration,source\nx,0,1,1,1,0\n")
	f.Add("id,arrival,cpu,mem_gib,duration,source\n0,5,1,1,1,0\n1,2,1,1,1,0\n")
	f.Add("wrong,header\n")
	f.Add("")
	f.Add("\"unterminated")

	f.Fuzz(func(t *testing.T, data string) {
		tasks, err := ImportCSV(strings.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := ExportCSV(&out, tasks); err != nil {
			t.Fatalf("accepted trace failed to re-export: %v", err)
		}
		again, err := ImportCSV(&out)
		if err != nil {
			t.Fatalf("re-exported trace failed to re-import: %v", err)
		}
		if len(again) != len(tasks) {
			t.Fatalf("round trip changed task count: %d vs %d", len(again), len(tasks))
		}
		for i := range tasks {
			if tasks[i] != again[i] {
				t.Fatalf("round trip changed task %d: %+v vs %+v", i, tasks[i], again[i])
			}
		}
	})
}
