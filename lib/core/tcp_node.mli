(** One replica as a networked node: a {!Replica_host} behind a
    {!Rdb_net.Tcp_transport} listener, speaking the {!Wire} format — the
    body of [bin/resdb_node], runnable in-process as well (the TCP tests
    start four of them in one process).

    On top of the host this adds only the wiring a network needs:
    - client signatures and replica MACs are verified on the receive
      thread, outside the node lock; the request bodies and client reply
      addresses the batch references ride along with each Pre-prepare as
      {!Wire.attachment}s;
    - replies go back to the address the client announced;
    - a flush thread proposes a partial batch every 5 ms, so a trickle of
      requests does not wait for a full batch.

    A node restarted on the same port with an empty store and ledger
    catches up through state transfer at the next stable checkpoint.

    Demo key provisioning: every party derives the client keypair and the
    replicas' group MAC secret from fixed seeds, standing in for the
    offline key ceremony of a permissioned deployment.  The application
    is a key-value store ([SET k v], [GET k], [DEL k]). *)

type t

val client_signer : unit -> Rdb_crypto.Signer.t
(** The demo client keypair clients sign requests with. *)

val parse_peers : string -> (int * (string * int)) list
(** ["host:port,host:port,..."], position = replica id. *)

val start :
  ?verbose:bool ->
  ?port:int ->
  id:int ->
  n:int ->
  batch_size:int ->
  unit ->
  t
(** Bind (on 127.0.0.1; [port] 0, the default, picks an ephemeral one) and
    start serving replica [id] of [n], checkpointing every 100 sequence
    numbers (the protocol default).  [verbose] logs rejected traffic to
    standard error.  Call {!set_peers} before any request arrives. *)

val port : t -> int

val set_peers : t -> (int * (string * int)) list -> unit
(** The replica directory, id -> (host, port). *)

type status = {
  executed_txns : int;  (** requests this node executed itself *)
  last_executed : int;  (** sequence number *)
  chain_blocks : int;  (** ledger height, genesis and pruned blocks included *)
  leads : bool;  (** this node is the primary *)
}

val status : t -> status

val state_digest : t -> string
(** Digest of the application state (raw bytes). *)

val stop : t -> unit
(** Stop the flush thread and close every connection. *)
