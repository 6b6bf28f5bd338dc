(** One replica of the real-clock runtimes, between its transport and its
    consensus core: the code {!Local_runtime} (in-process FIFO fabric) and
    {!Tcp_node} (the networked [resdb_node]) both host every replica on.

    A host drives a {!Rdb_consensus.Core.t} through the
    [Core.propose]/[Core.step] seam and carries out the actions it emits:
    - primary batch formation: queued transaction ids become batches of
      [batch_size] (or a partial batch on [~force]), digested with real
      SHA-256 and proposed;
    - authentication: a CMAC tag per outbound message, checked on receipt
      with a verify-sharing memo (an exact re-delivery skips the CMAC);
    - execution: the application callback on this replica's own
      {!Rdb_storage.Mem_store}, serially or on domain lanes
      ({!Rdb_replica.Exec_sched}); one state digest per executed batch;
    - a certificate-linked block per executed batch in the replica's
      {!Rdb_chain.Ledger}, checkpointed and pruned at stable checkpoints;
    - state transfer ({!Rdb_consensus.State_transfer}): a replica behind a
      stable checkpoint asks for state and holds the batches ordered after
      it until an export reaching that checkpoint lands; a replica holding
      a stable certificate serves its chain segment and an application
      export.

    The host owns no transport and no request bodies: the embedding
    runtime passes an outbound [send]/[reply] pair and a transaction-id
    lookup.  Not thread-safe; a multi-threaded embedder serializes calls. *)

type request = { client : int; payload : string }

type t

val create :
  core:Rdb_consensus.Core.t ->
  config:Rdb_consensus.Config.t ->
  id:int ->
  mac:Rdb_crypto.Cmac.key ->
  ledger:Rdb_chain.Ledger.t ->
  batch_size:int ->
  ?exec_threads:int ->
  ?footprint:(client:int -> payload:string -> Rdb_replica.Exec_sched.footprint) ->
  ?admit:(int -> bool) ->
  apply:(Rdb_storage.Mem_store.t -> client:int -> payload:string -> string) ->
  lookup:(int -> request option) ->
  send:(dst:int -> tag:string -> Rdb_consensus.Message.t -> unit) ->
  reply:(client:int -> Rdb_consensus.Message.t -> unit) ->
  unit ->
  t
(** [send ~dst ~tag msg] ships a protocol message and its CMAC tag (under
    [mac], the replicas' group key) to replica [dst]; [reply ~client msg]
    ships a client-bound message.  [lookup] maps a transaction id to its
    request; a batch is formed only when every request is found and
    [admit] (default: accept) accepts every id — the runtime's hook for
    checking client signatures at batch formation.  [exec_threads]
    (default 1) with [footprint] selects parallel execution, under the
    contract {!Local_runtime.create} documents.

    A [ledger] that already holds a chain (a reopened durable one)
    fast-forwards the core past its tip, so ordering resumes there. *)

val enqueue : t -> int -> unit
(** Queue a transaction id for batching. *)

val clear_pending : t -> unit

val form_batches : t -> force:bool -> unit
(** If this replica leads, propose every full batch queued, and with
    [~force] a partial one from what remains. *)

val authentic : t -> Rdb_consensus.Message.t -> tag:string -> bool
(** Check a received message's CMAC tag, memoised. *)

val mac_valid : t -> Rdb_consensus.Message.t -> tag:string -> bool
(** The same check without the memo: it touches no mutable state, so a
    multi-threaded embedder may call it outside its lock. *)

val deliver : t -> Rdb_consensus.Message.t -> unit
(** Handle an authenticated message: state-transfer requests and responses
    here, everything else through the core. *)

val input : t -> Rdb_consensus.Core.input -> unit
(** Feed the core a host-level stimulus (e.g. [Suspect 0] for a view
    change) and carry out its actions. *)

val request_state : t -> unit
(** Broadcast a state-transfer request (a replica coming back after a
    crash asks right away instead of waiting for the next checkpoint). *)

val view : t -> int
val leads : t -> bool
val last_executed : t -> int

val applied : t -> int
(** Highest sequence number reflected in the application state (through
    execution or state transfer). *)

val store : t -> Rdb_storage.Mem_store.t
val ledger : t -> Rdb_chain.Ledger.t

val executed_txns : t -> int
(** Requests this replica executed itself (state transfer excluded). *)

val mac_cache_hits : t -> int
