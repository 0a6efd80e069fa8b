// UnmarshalArray may size its parts by the core count, and may not start
// a goroutine of its own.
package job

import "runtime"

func UnmarshalArray(data []byte, parse func([]byte)) {
	parts := min(runtime.GOMAXPROCS(0), len(data))
	done := make(chan struct{}, parts)
	for p := 0; p < parts; p++ {
		go func() { parse(data[p*len(data)/parts : (p+1)*len(data)/parts]); done <- struct{}{} }() // want fan-out
	}
	for p := 0; p < parts; p++ {
		<-done
	}
}
