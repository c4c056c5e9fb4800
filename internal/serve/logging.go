package serve

import (
	"fmt"
	"log/slog"
	"os"
)

// SetupLogging installs the process-wide structured logger both
// binaries use: key=value text lines on stderr, filtered at level
// (debug, info, warn or error — the -log-level flag).
func SetupLogging(level string) error {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return fmt.Errorf("-log-level %q: want debug, info, warn or error", level)
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr,
		&slog.HandlerOptions{Level: lv})))
	return nil
}
