// The sharded serving tier end to end: start three in-process prediction
// daemons, put the cluster gateway that cmd/mpigateway hosts in front of
// them, and drive the whole thing through the gateway's single-daemon
// HTTP surface — observes route to each session's rendezvous-hash owner,
// predicts follow them, and the session listing fans out to every
// backend and merges. Then the operational half: partition a single
// node's snapshot across the cluster (the migration step of a shard-map
// change) and watch the gateway keep answering, degraded but usable,
// while one backend is down.
//
// Run with:
//
//	go run ./examples/cluster-fanout
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"

	"mpipredict"
)

func main() {
	// --- Three backends, exactly as three mpipredictd processes. ---
	var backends []string
	servers := make(map[string]*http.Server)
	registries := make(map[string]*mpipredict.ServeRegistry)
	for i := 0; i < 3; i++ {
		reg := mpipredict.NewServeRegistry(mpipredict.ServeConfig{})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		srv := &http.Server{Handler: mpipredict.NewServeServer(reg)}
		go srv.Serve(ln)
		base := "http://" + ln.Addr().String()
		backends = append(backends, base)
		servers[base] = srv
		registries[base] = reg
		defer srv.Close()
	}

	// --- The gateway: one shard map, one HTTP front door. ---
	shards, err := mpipredict.NewShardMap(backends)
	if err != nil {
		log.Fatal(err)
	}
	gw := mpipredict.NewClusterGateway(shards, mpipredict.ClusterOptions{})
	gln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	gsrv := &http.Server{Handler: gw}
	go gsrv.Serve(gln)
	defer gsrv.Close()
	front := "http://" + gln.Addr().String()
	fmt.Println("gateway listening on", front, "over", len(backends), "backends")

	// --- Observe eight tenants' halo exchanges through one URL. ---
	// Each (tenant, stream) session lands on its rendezvous owner; the
	// client neither knows nor cares which backend that is.
	senders := []int64{1, 2, 3, 1, 2, 3}
	sizes := []int64{512, 512, 512, 65536, 65536, 65536}
	for t := 0; t < 8; t++ {
		tenant := fmt.Sprintf("app.%d", t)
		var events []mpipredict.ServeEvent
		for round := 0; round < 100; round++ {
			for i := range senders {
				events = append(events, mpipredict.ServeEvent{Sender: senders[i], Size: sizes[i]})
			}
		}
		post(front+"/v1/observe", map[string]interface{}{
			"tenant": tenant, "stream": "rank0/physical", "events": events,
		})
	}
	for _, base := range backends {
		fmt.Printf("  backend %s owns %d sessions\n", base, registries[base].Len())
	}

	// --- Predict through the gateway: routed to the same owner. ---
	var forecast struct {
		Forecasts []struct {
			Ahead  int   `json:"ahead"`
			Sender int64 `json:"sender"`
			Size   int64 `json:"size"`
		} `json:"forecasts"`
	}
	getJSON(front+"/v1/predict?tenant=app.0&stream=rank0/physical&k=3", &forecast)
	fmt.Print("forecast for app.0: ")
	for _, p := range forecast.Forecasts {
		fmt.Printf("+%d:(sender %d, %d B) ", p.Ahead, p.Sender, p.Size)
	}
	fmt.Println()

	// --- The merged session listing fans out to every backend. ---
	var listing struct {
		Total    int  `json:"total"`
		Degraded bool `json:"degraded"`
	}
	getJSON(front+"/v1/sessions?limit=5", &listing)
	fmt.Printf("cluster sessions: %d total, degraded=%v\n", listing.Total, listing.Degraded)

	// --- Migration: a single node's snapshot, partitioned by shard. ---
	// This is what `mpigateway -migrate state.mps` does: split a drained
	// daemon's checkpoint and restore each part to its owner.
	single := mpipredict.NewServeRegistry(mpipredict.ServeConfig{})
	for i := 0; i < 6; i++ {
		if _, _, err := single.ObserveBlockSeq(fmt.Sprintf("legacy.%d", i), "r0/physical", "", 0, []int64{1}, []int64{256}); err != nil {
			log.Fatal(err)
		}
	}
	counts, err := gw.RestoreToCluster(context.Background(), single.SnapshotSessions())
	if err != nil {
		log.Fatal(err)
	}
	migrated := 0
	for _, n := range counts {
		migrated += n
	}
	fmt.Printf("migrated %d legacy sessions across %d backends\n", migrated, len(counts))

	// --- Partial failure: stop one backend; the cluster stays usable. ---
	servers[backends[0]].Close()
	getJSON(front+"/v1/sessions?limit=5", &listing)
	fmt.Printf("with %s down: %d sessions listed, degraded=%v\n", backends[0], listing.Total, listing.Degraded)
}

func post(url string, payload interface{}) {
	body, err := json.Marshal(payload)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		log.Fatalf("POST %s: %s: %s", url, resp.Status, msg)
	}
	io.Copy(io.Discard, resp.Body)
}

func getJSON(url string, into interface{}) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		log.Fatalf("GET %s: %s: %s", url, resp.Status, msg)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		log.Fatalf("GET %s: %v", url, err)
	}
}
