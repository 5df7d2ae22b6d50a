package device

import (
	"context"
	"testing"
)

// runSink keeps the compiler from discarding benchmarked runs.
var runSink *Outcome

// BenchmarkDeviceRun times one Run of every registered device on every
// family it admits.
func BenchmarkDeviceRun(b *testing.B) {
	for _, name := range List() {
		d, err := Open(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, app := range Apps() {
			w := Workload{App: app, N: 512, Products: 4}
			configs, err := d.Configs(w)
			if err != nil {
				continue
			}
			c := configs[len(configs)/2]
			b.Run(name+"/"+app, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					out, err := d.Run(context.Background(), w, c)
					if err != nil {
						b.Fatal(err)
					}
					runSink = out
				}
			})
		}
	}
}
