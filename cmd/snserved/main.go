// Command snserved is the campaign-serving daemon: an HTTP/JSON API
// over a persistent, resumable job queue. Each campaign runs in process
// on a worker pool -j wide, and every completed run is checkpointed to
// the job's record log, so a killed-and-restarted daemon, at any -j,
// resumes mid-campaign and still serves the byte-identical
// expansion-order report a local sncampaign run would print. A larger
// campaign runs on a larger host.
//
//	snserved -addr :8321 -store /var/lib/snserved
//	curl -X POST --data-binary @examples/campaigns/availability-matrix.json \
//	    http://localhost:8321/campaigns
//	curl http://localhost:8321/campaigns/c000001
//	curl -N http://localhost:8321/campaigns/c000001/events
//	curl http://localhost:8321/campaigns/c000001/report?format=csv
//
// SIGINT/SIGTERM shut the daemon down gracefully: the in-flight job
// checkpoints its abandonment and resumes on the next start. Exit
// status: 0 on a clean shutdown, 1 on a startup or serve error.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"safetynet/internal/serve"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr  = flag.String("addr", ":8321", "listen address")
		store = flag.String("store", "snserved-store", "persistent job-store directory")
		par   = flag.Int("j", 0, "worker-pool width (0 = one per CPU)")
		ckpt  = flag.Int("checkpoint-every", 1, "completed runs between checkpoint syncs of a job's record log")
		queue = flag.Int("queue", 64, "maximum queued jobs before submissions get 503")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: snserved [flags]")
		flag.PrintDefaults()
		return 1
	}
	logger := log.New(os.Stderr, "snserved: ", log.LstdFlags)
	s, err := serve.New(serve.Options{
		StoreDir:        *store,
		Workers:         *par,
		CheckpointEvery: *ckpt,
		MaxQueue:        *queue,
		Logf:            logger.Printf,
	})
	if err != nil {
		logger.Print(err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := s.ListenAndServe(ctx, *addr); err != nil && err != http.ErrServerClosed {
		logger.Print(err)
		return 1
	}
	logger.Print("shut down cleanly")
	return 0
}
