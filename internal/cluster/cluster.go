// Package cluster describes the machines an engine run executes on: how
// many workers, their relative speeds (for heterogeneity experiments),
// task slot counts, and the scheduling overheads that emulate
// Hadoop-style job and task launch costs.
//
// The engines run workers as goroutines, so "a node" here is a named
// execution context with a speed factor, not an OS process; the TCP
// transport can still put real sockets between them.
package cluster

import (
	"fmt"
	"time"
)

// Node is one worker machine.
type Node struct {
	// ID names the node; it doubles as the DFS datanode name and the
	// transport address.
	ID string
	// Speed is the relative CPU speed (1.0 = nominal). Values below 1
	// stretch compute phases, emulating the heterogeneous EC2 hardware
	// the paper's load balancer targets.
	Speed float64
}

// Spec configures a cluster for one engine run.
type Spec struct {
	Nodes []Node
	// MapSlots and ReduceSlots bound concurrently executing tasks per
	// worker. Hadoop's default, which the paper cites, is two of each.
	MapSlots    int
	ReduceSlots int
	// JobInitOverhead is charged once per submitted MapReduce job
	// (scheduling, setup, cleanup). This is the cost iMapReduce's
	// one-time initialization eliminates for iterations 2..n.
	JobInitOverhead time.Duration
	// TaskStartOverhead is charged when a task process is launched
	// (Hadoop's per-task JVM start). Persistent tasks pay it once.
	TaskStartOverhead time.Duration
}

// Uniform returns a spec with n equally fast workers named worker-0..n-1
// and Hadoop-like defaults (2 map + 2 reduce slots).
func Uniform(n int) Spec {
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = Node{ID: fmt.Sprintf("worker-%d", i), Speed: 1.0}
	}
	return Spec{Nodes: nodes, MapSlots: 2, ReduceSlots: 2}
}

// Heterogeneous returns a spec where node i runs at speeds[i] relative
// speed.
func Heterogeneous(speeds []float64) Spec {
	s := Uniform(len(speeds))
	for i, f := range speeds {
		s.Nodes[i].Speed = f
	}
	return s
}

// IDs lists node IDs in order.
func (s Spec) IDs() []string {
	ids := make([]string, len(s.Nodes))
	for i, n := range s.Nodes {
		ids[i] = n.ID
	}
	return ids
}

// SpeedOf returns the speed factor of node id (1.0 if unknown).
func (s Spec) SpeedOf(id string) float64 {
	for _, n := range s.Nodes {
		if n.ID == id {
			if n.Speed <= 0 {
				return 1.0
			}
			return n.Speed
		}
	}
	return 1.0
}

// Validate reports configuration errors.
func (s Spec) Validate() error {
	if len(s.Nodes) == 0 {
		return fmt.Errorf("cluster: no nodes")
	}
	seen := make(map[string]bool, len(s.Nodes))
	for _, n := range s.Nodes {
		if n.ID == "" {
			return fmt.Errorf("cluster: empty node ID")
		}
		if seen[n.ID] {
			return fmt.Errorf("cluster: duplicate node ID %q", n.ID)
		}
		seen[n.ID] = true
	}
	if s.MapSlots <= 0 || s.ReduceSlots <= 0 {
		return fmt.Errorf("cluster: slots must be positive (map=%d reduce=%d)", s.MapSlots, s.ReduceSlots)
	}
	return nil
}

// StretchFor converts a nominal compute duration into the wall time it
// takes on node id, given its speed factor.
func (s Spec) StretchFor(id string, d time.Duration) time.Duration {
	sp := s.SpeedOf(id)
	return time.Duration(float64(d) / sp)
}
