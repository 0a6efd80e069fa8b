// Command mcbound-train is the Training Workflow script of Figure 1: it
// asks a running mcbound-server to retrain its Classification Model on
// the last α days of job data. In the paper this script is re-executed
// by a cronjob every β days.
//
// Usage:
//
//	mcbound-train -server http://localhost:8080 -now 2024-02-01T00:00:00Z
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"mcbound/internal/peer"
)

func main() {
	var (
		server  = flag.String("server", "http://localhost:8080", "MCBound backend base URL")
		now     = flag.String("now", "", "training reference instant (RFC 3339); empty = server wall clock")
		index   = flag.String("index", "", "override the KNN IVF index mode for this and future trains: auto, on, off (empty = leave server config)")
		nprobe  = flag.Int("nprobe", 0, "IVF cells scanned per query; also applied to the live model (0 = leave)")
		timeout = flag.Duration("timeout", 10*time.Minute, "request timeout")
	)
	flag.Parse()

	if err := run(os.Stdout, *server, *now, *index, *nprobe, *timeout); err != nil {
		fmt.Fprintln(os.Stderr, "mcbound-train:", err)
		os.Exit(1)
	}
}

// run posts one train request and prints the server's report to out.
func run(out io.Writer, server, now, index string, nprobe int, timeout time.Duration) error {
	var report json.RawMessage
	err := peer.JSON(context.Background(), &http.Client{Timeout: timeout},
		peer.Call{Method: http.MethodPost, URL: server + "/v1/train"},
		map[string]any{"now": now, "index": index, "nprobe": nprobe}, &report)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", report)
	return err
}
