// Plants for the peer rule.
package repl

import (
	"context"
	"net/http"
)

// A client under a name the text match did not list.
func fetch(cl *http.Client, u string) (*http.Response, error) {
	return cl.Get(u) // want peer
}

// Method values: no call follows the name.
func shortcuts(cl *http.Client) (func(string) (*http.Response, error), func(string) (*http.Response, error)) {
	get := http.Get // want peer
	head := cl.Head // want peer
	return get, head
}

func build(ctx context.Context, u string) (*http.Request, error) {
	return http.NewRequestWithContext(ctx, http.MethodGet, u, nil) // want peer
}

// Negative control: Do sends a request someone else built.
func forward(hc *http.Client, r *http.Request) (*http.Response, error) {
	return hc.Do(r)
}
