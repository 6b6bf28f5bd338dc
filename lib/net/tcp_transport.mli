(** Real TCP transport for deploying the protocol cores across processes or
    machines — the networked counterpart of the simulated {!Net}.

    Each node binds a listening socket (an ephemeral port by default, so
    in-process multi-node tests never collide), accepts connections on a
    background thread, and deframes incoming {!Rdb_consensus.Codec} frames
    on per-connection reader threads.  Outgoing connections are opened
    lazily on first send and kept alive.

    Delivery guarantees mirror TCP: reliable, ordered per connection; a
    peer that is down simply receives nothing (BFT protocols tolerate
    this).  First connections retry with bounded backoff (five attempts,
    10..80 ms apart) so cluster nodes may start in any order; a stale
    connection is reopened once per {!send}.  A peer that refused every
    attempt counts as down: until it accepts again, each send tries to
    connect once, without the backoff.  Definitive failures are counted in
    {!send_failures}.

    The [on_message] callback runs on reader threads but is serialized by
    an internal lock, so a single-threaded consensus core behind it needs
    no further synchronization. *)

type t

val create : ?host:string -> ?port:int -> on_message:(payload:string -> unit) -> unit -> t
(** Binds and starts accepting.  [host] defaults to 127.0.0.1; [port]
    defaults to 0 (ephemeral — query the binding with {!port}). *)

val port : t -> int
(** The actual bound port (useful with the default ephemeral binding). *)

val set_peers : t -> (int * (string * int)) list -> unit
(** Declare the peer directory: node id -> (host, port).  May be called
    once the full cluster's ports are known. *)

val add_peer : t -> int -> string * int -> unit
(** Add or update a single directory entry (e.g. a client that announced
    its reply address inside a request). *)

val send : t -> to_:int -> string -> bool
(** Frame and send a payload to a peer; [false] if the peer is unknown or
    unreachable (after the bounded reconnection attempts). *)

val broadcast : t -> string -> int
(** Send to every peer; returns how many sends succeeded. *)

val messages_received : t -> int

val send_failures : t -> int
(** Sends that definitively failed (unknown peer, or unreachable after the
    bounded reconnect attempts). *)

val shutdown : t -> unit
(** Closes the listener and all connections; joins background threads. *)
