(** An embeddable, single-process ResilientDB cluster over the pure PBFT
    cores — the "library mode" of this repository, used by the examples.

    Unlike {!Cluster} (which charges a calibrated cost model under a
    discrete-event clock to reproduce the paper's performance numbers), this
    runtime runs everything for real, synchronously:
    - client requests are {e actually signed} (ED25519-class Schnorr) and
      verified by the primary before batching;
    - protocol messages carry {e real} CMAC-AES authenticators over their
      canonical auth strings, verified on receipt;
    - batches are digested with {e real} SHA-256;
    - execution applies the application's callback to each replica's own
      {!Rdb_storage.Mem_store};
    - every executed batch becomes a block (commit-certificate linkage) in
      each replica's {!Rdb_chain.Ledger};
    - crash faults and primary view changes can be injected.

    The replica logic (batching, MAC checks, execution, ledger, checkpoints,
    state transfer) lives in {!Replica_host}, the same code the networked
    [resdb_node] runs through {!Tcp_node}.  This module is only the
    in-process fabric around one host per replica: the message queue, the
    crash set, one {!Rdb_consensus.Pbft_client} per client and the trace.

    Message delivery is FIFO and reliable between live replicas.  This is a
    deterministic in-process harness, not a networked deployment. *)

type t

type config = {
  n : int;  (** replicas, >= 4 *)
  batch_size : int;  (** requests per Pre-prepare *)
  checkpoint_interval : int;  (** sequence numbers between checkpoints *)
  seed : int64;
  durable_dir : string option;
      (** back each replica's ledger with the WAL + B-tree
          {!Rdb_chain.Block_store} under this directory (one subdirectory
          per replica); [None] keeps the in-memory backend.  Reopening the
          same directory crash-recovers the chains (torn WAL tails
          truncated) and the cluster resumes ordering at the persisted tip;
          call {!close} for a clean shutdown flush *)
  exec_threads : int;
      (** execute lanes per replica, in [1, 64]; default 1 (serial, exactly
          the classic path).  With [exec_threads >= 2] {e and} a
          [footprint] callback at {!create}, each committed batch is
          partitioned by {!Rdb_replica.Exec_sched} into key-disjoint lanes
          separated by barrier rounds, and each round's lanes run on real
          OCaml 5 domains ([Domain.spawn]).  A domain never touches the
          shared store: it applies its lane against a private staging store
          seeded from the lane's declared footprint, and the main thread
          merges each lane's declared write keys back after joining.
          Within a round the write sets are cross-lane disjoint, so the
          merged state equals serial in-order execution — audited by
          {!verify} *)
}

val default_config : config

val create :
  ?config:config ->
  ?trace:bool ->
  ?footprint:(client:int -> payload:string -> Rdb_replica.Exec_sched.footprint) ->
  apply:(replica:int -> Rdb_storage.Mem_store.t -> client:int -> payload:string -> string) ->
  unit ->
  t
(** [apply] executes one request against a replica's store and returns the
    result string sent back to the client.  It must be deterministic: all
    replicas run it independently and their results must agree.

    [footprint] declares the keys one request will read and write, enabling
    the parallel execution path when [config.exec_threads >= 2].  The
    contract is strict: [apply] must touch {e only} declared keys — an
    undeclared read sees an empty staging slot and an undeclared write is
    dropped at the merge (each lane runs against a private staging store,
    see {!type:config}).  Omitting [footprint] keeps execution serial at
    any [exec_threads].

    [trace] (default false) records every delivered protocol message as a
    Chrome trace event, retrievable with {!trace_json}; this runtime has no
    simulated clock, so delivery order stands in for time. *)

val submit : t -> client:int -> payload:string -> int
(** Queue a signed request; returns its transaction id.  Requests are
    batched once [batch_size] are pending (call {!flush} for a partial
    batch). *)

val flush : t -> unit
(** Force a batch out of any pending requests. *)

val run : t -> unit
(** Drive message delivery until the cluster is quiescent. *)

val crash : t -> int -> unit
(** Silence a replica (crash fault), including any of its outbound messages
    not yet delivered — they model sends that never made it onto the wire.
    Tolerates up to f crashes. *)

val recover : t -> int -> unit
(** Bring a crashed replica back.  It missed every message in between, so
    it immediately broadcasts a {!Rdb_consensus.Message.State_request};
    any live peer holding a stable-checkpoint certificate answers with the
    certificate, its retained chain segment and an application-state
    export, which the replica verifies and installs
    ({!Rdb_consensus.State_transfer} — the same code path the DES
    {!Cluster} recovers through).  If no checkpoint is stable yet, the
    next one to stabilise re-triggers the request. *)

val applied : t -> int -> int
(** Highest sequence number reflected in a replica's application state
    (through execution or state transfer). *)

val close : t -> unit
(** Flush and close every replica's ledger backend.  Only meaningful with
    [durable_dir]: a later {!create} over the same directory then resumes
    at the flushed tip (without it, recovery replays the WAL and resumes
    from the last stable checkpoint). *)

val force_view_change : t -> unit
(** Make every live replica suspect the current primary, as their request
    timers would; the next view's primary takes over and re-batches every
    request whose reply never reached its client (clients would retransmit
    in a networked deployment).  Completed transactions are never
    re-proposed; re-batched admitted requests hit the verify-sharing memo
    table instead of being re-verified. *)

val primary : t -> int

val view : t -> int

val completed : t -> (int * string) list
(** Client-accepted results so far, as [(txn_id, result)], oldest first.
    A result is accepted once f+1 replicas sent matching replies. *)

val store : t -> int -> Rdb_storage.Mem_store.t
(** A replica's application state (read-only use intended). *)

val ledger : t -> int -> Rdb_chain.Ledger.t

val last_executed : t -> int -> int

val verify : t -> (unit, string) result
(** Cross-replica audit: all live replicas' ledgers have equal cumulative
    digests and equal application-state digests, and each ledger passes its
    own integrity check. *)

val auth_failures : t -> int
(** Messages dropped because their MAC or signature did not verify
    (should be zero unless the host injects corruption). *)

val verify_cache_hits : t -> int
(** Cryptographic checks skipped by verify-sharing: duplicate MAC
    deliveries answered from a replica's memo table plus client signatures
    re-used when a view change re-batches admitted requests. *)

val inject_forged_message : t -> dst:int -> unit
(** For tests/demos: deliver a protocol message with a corrupted
    authenticator to [dst]; it must be rejected and counted. *)

val trace_json : t -> string option
(** The Chrome [trace_event] JSON of every message delivered so far — one
    process per replica, one event per protocol message, timestamped by
    delivery order.  [None] unless created with [~trace:true]. *)
