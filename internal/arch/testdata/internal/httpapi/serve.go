// httpapi.Serve may set its drain deadline on the wall clock; any other
// function of the package may not.
package httpapi

import (
	"context"
	"time"
)

func Serve(ctx context.Context, drain time.Duration) {
	_, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
}

func guard(ctx context.Context, d time.Duration) {
	_, cancel := context.WithTimeout(ctx, d) // want clock/deadlines
	defer cancel()
}
