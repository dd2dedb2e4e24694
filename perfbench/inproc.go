package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"trusthmd/pkg/cluster"
	"trusthmd/pkg/detector"
	"trusthmd/pkg/serve"
	"trusthmd/pkg/verdictstore"
)

// inproc is the traced run's deployment: the same wiring as
// cmd/trusthmdd (verdict store, serve.NewFleet + NewServer, and for a
// cluster a cluster.Agent sharing the listener) on httptest loopback
// listeners, with every tuning knob at its default.
type inproc struct {
	ts     []*httptest.Server
	srvs   []*serve.Server
	agents []*cluster.Agent
	stores []*verdictstore.Store
}

func startInproc(gob []byte, dir string, n int, tr *tracer) (*inproc, error) {
	ip := &inproc{}
	var coordURL string
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("n%d", i+1)
		store, err := verdictstore.Open(filepath.Join(dir, id+"-verdicts"), verdictstore.Config{})
		if err != nil {
			ip.stop()
			return nil, err
		}
		ip.stores = append(ip.stores, store)
		models := map[string]*detector.Detector{}
		if i == 0 {
			det, err := detector.Load(bytes.NewReader(gob))
			if err != nil {
				ip.stop()
				return nil, err
			}
			models["default"] = det
		}
		fleet, err := serve.NewFleet(models, serve.Config{Verdicts: store})
		if err != nil {
			ip.stop()
			return nil, err
		}
		srv := serve.NewServer(fleet)
		ip.srvs = append(ip.srvs, srv)
		ts := httptest.NewUnstartedServer(nil)
		ip.ts = append(ip.ts, ts)
		handler := http.Handler(srv)
		var agent *cluster.Agent
		if n > 1 {
			url := "http://" + ts.Listener.Addr().String()
			cfg := cluster.Config{
				NodeID:    id,
				Advertise: url,
				Client:    &http.Client{Transport: hopTransport{t: tr, node: i, next: newTransport()}, Timeout: 10 * time.Second},
			}
			if i == 0 {
				cfg.Coordinator = true
				coordURL = url
			} else {
				cfg.Join = coordURL
			}
			if agent, err = cluster.New(cfg, fleet); err != nil {
				ip.stop()
				return nil, err
			}
			ip.agents = append(ip.agents, agent)
			srv.AttachCluster(agent)
			mux := http.NewServeMux()
			mux.Handle("/cluster/", agent.Handler())
			mux.Handle("/", srv)
			handler = mux
		}
		ts.Config.Handler = tr.handler(i, handler)
		ts.Start()
		if agent != nil {
			if err := agent.Start(); err != nil {
				ip.stop()
				return nil, err
			}
		}
	}
	return ip, nil
}

func (ip *inproc) urls() []string {
	out := make([]string, len(ip.ts))
	for i, ts := range ip.ts {
		out[i] = ts.URL
	}
	return out
}

// stop shuts down in the daemon's order: agents, listeners, servers
// (draining the coalescers), and the verdict stores last.
func (ip *inproc) stop() {
	for _, a := range ip.agents {
		a.Close()
	}
	for _, ts := range ip.ts {
		if ts.URL == "" { // never started
			ts.Listener.Close()
			continue
		}
		ts.CloseClientConnections()
		ts.Close()
	}
	for _, s := range ip.srvs {
		s.Close()
	}
	for _, st := range ip.stores {
		_ = st.Close() // the run's stores are scratch; a failed close loses nothing it checks
	}
}

// fleetCounters sums the serving counters of every node's fleet.
func (ip *inproc) fleetCounters() fleetDelta {
	var d fleetDelta
	for _, srv := range ip.srvs {
		for _, s := range srv.Stats() {
			d.requests += s.Requests
			d.batchRequests += s.BatchRequests
			d.sessions += s.StreamSessions
			d.batches += s.Batches
			d.queued += int64(math.Round(s.MeanBatchSize * float64(s.Batches)))
			d.shed += s.Shed
			d.hits += s.CacheHits
			d.misses += s.CacheMisses
		}
	}
	return d
}

func (d fleetDelta) minus(o fleetDelta) fleetDelta {
	return fleetDelta{
		requests:      d.requests - o.requests,
		batchRequests: d.batchRequests - o.batchRequests,
		sessions:      d.sessions - o.sessions,
		batches:       d.batches - o.batches,
		queued:        d.queued - o.queued,
		shed:          d.shed - o.shed,
		hits:          d.hits - o.hits,
		misses:        d.misses - o.misses,
	}
}

func (ip *inproc) forwardsOut() int64 {
	var n int64
	for _, a := range ip.agents {
		if v, ok := a.StatsFields()["forwards_out"].(int64); ok {
			n += v
		}
	}
	return n
}
