// Package sbft is a from-scratch Go implementation of SBFT: a Scalable
// and Decentralized Trust Infrastructure (Golan Gueta et al., DSN 2019) —
// a Byzantine fault tolerant state-machine-replication engine for
// n = 3f + 2c + 1 replicas with four scalability ingredients: collector-
// based linear communication, an optimistic fast path, single-message
// client acknowledgement through threshold signatures, and c redundant
// servers that keep the fast path alive under stragglers.
//
// This facade re-exports the library's public surface:
//
//   - Config/Replica/Client: the sans-io protocol engine (internal/core)
//   - Cluster: a deterministic simulated deployment over a modeled WAN
//     (internal/cluster + internal/sim)
//   - Shell: real TCP deployment (internal/transport)
//   - KVApp/EVMApp: the authenticated key-value store and the EVM-subset
//     smart-contract ledger (internal/kvstore, internal/evm)
//
// Quickstart (simulated deployment):
//
//	cl, err := sbft.NewCluster(sbft.ClusterOptions{
//		Protocol: sbft.ProtoSBFT, F: 1, C: 0, Clients: 4,
//	})
//	res := cl.RunClosedLoop(100, func(client, i int) []byte {
//		return sbft.Put(fmt.Sprintf("key-%d-%d", client, i), []byte("v"))
//	}, time.Minute)
//	fmt.Printf("throughput: %.0f ops/s\n", res.Throughput)
//
// See examples/ for runnable programs and DESIGN.md for the paper
// reproduction map.
package sbft

import (
	"time"

	"sbft/internal/apps"
	"sbft/internal/cluster"
	"sbft/internal/core"
	"sbft/internal/crypto/threshsig"
	"sbft/internal/evm"
	"sbft/internal/kvstore"
	"sbft/internal/sim"
	"sbft/internal/transport"
)

// Protocol variants (the paper's evaluation ladder, §IX).
const (
	ProtoPBFT       = cluster.ProtoPBFT
	ProtoLinearPBFT = cluster.ProtoLinearPBFT
	ProtoLinearFast = cluster.ProtoLinearFast
	ProtoSBFT       = cluster.ProtoSBFT
)

// Application kinds.
const (
	AppKV  = cluster.AppKV
	AppEVM = cluster.AppEVM
)

// Re-exported core types.
type (
	// Config parameterizes an SBFT deployment (n = 3f + 2c + 1).
	Config = core.Config
	// Replica is the sans-io SBFT replica event machine.
	Replica = core.Replica
	// Client is the sans-io SBFT client.
	Client = core.Client
	// Env is the world interface a node runs against.
	Env = core.Env
	// Application is the deterministic replicated service interface.
	Application = core.Application
	// Request is a client operation.
	Request = core.Request
	// Result is a completed client operation.
	Result = core.Result
	// CryptoSuite bundles the three threshold schemes (σ, τ, π).
	CryptoSuite = core.CryptoSuite
	// ReplicaKeys holds one replica's threshold signers.
	ReplicaKeys = core.ReplicaKeys
	// Metrics counts protocol events.
	Metrics = core.Metrics

	// ClusterOptions configures a simulated deployment.
	ClusterOptions = cluster.Options
	// Cluster is a wired simulated deployment.
	Cluster = cluster.Cluster
	// WorkloadResult summarizes a closed-loop run.
	WorkloadResult = cluster.WorkloadResult

	// Shell hosts a node over TCP.
	Shell = transport.Shell

	// KVApp is the authenticated key-value store application.
	KVApp = apps.KVApp
	// EVMApp is the smart-contract ledger application.
	EVMApp = apps.EVMApp
)

// DefaultConfig returns the paper's defaults for f and c.
func DefaultConfig(f, c int) Config { return core.DefaultConfig(f, c) }

// NewReplica constructs a replica over an Env (see internal/transport for
// a TCP Env and internal/cluster for the simulated one).
func NewReplica(id int, cfg Config, suite CryptoSuite, keys ReplicaKeys, app Application, env Env) (*Replica, error) {
	return core.NewReplica(id, cfg, suite, keys, app, env, nil)
}

// NewClient constructs a client. verifyKV/verifyEVM provide the proof
// checkers for the bundled applications.
func NewClient(id int, cfg Config, suite CryptoSuite, env Env, verify core.ProofVerifier) (*Client, error) {
	return core.NewClient(id, cfg, suite, env, verify)
}

// VerifyKV is the proof verifier for key-value clients.
var VerifyKV core.ProofVerifier = apps.VerifyKV

// VerifyEVM is the proof verifier for smart-contract clients.
var VerifyEVM core.ProofVerifier = apps.VerifyEVM

// ClientBase is the first node id used for clients.
const ClientBase = core.ClientBase

// DealInsecureSuite deals simulation-grade threshold keys (deterministic
// from seed). Real keys come from DealSuite with threshbls.Dealer.
func DealInsecureSuite(cfg Config, seed string) (CryptoSuite, []ReplicaKeys, error) {
	return core.InsecureSuite(cfg, seed)
}

// DealSuite deals a suite from any threshold-signature dealer
// (threshbls.Dealer for the threshold BLS keys the paper's system signs
// with, §III).
func DealSuite(cfg Config, dealer threshsig.Dealer) (CryptoSuite, []ReplicaKeys, error) {
	return core.DealSuite(cfg, dealer)
}

// NewCluster wires a simulated deployment (replicas, clients, WAN model).
func NewCluster(opts ClusterOptions) (*Cluster, error) { return cluster.New(opts) }

// NewShell opens a TCP shell for a node.
func NewShell(id int, listenAddr string, peers map[int]string) (*Shell, error) {
	return transport.NewShell(id, listenAddr, peers)
}

// NewKVApp returns a fresh authenticated key-value application.
func NewKVApp() *KVApp { return apps.NewKVApp() }

// NewEVMApp returns a fresh smart-contract ledger application.
func NewEVMApp() *EVMApp { return apps.NewEVMApp() }

// Put encodes a key-value put operation.
func Put(key string, value []byte) []byte { return kvstore.Put(key, value) }

// Get encodes a key-value get operation.
func Get(key string) []byte { return kvstore.Get(key) }

// Delete encodes a key-value delete operation.
func Delete(key string) []byte { return kvstore.Delete(key) }

// EVMTx re-exports the smart-contract transaction type.
type EVMTx = evm.Tx

// WAN profiles for simulated deployments.
var (
	// ContinentProfile models the paper's 5-region continent WAN.
	ContinentProfile = sim.ContinentProfile
	// WorldProfile models the paper's 15-region world WAN.
	WorldProfile = sim.WorldProfile
)

// RunFor advances a simulated cluster by a horizon of virtual time.
func RunFor(cl *Cluster, d time.Duration) { cl.Run(d) }
