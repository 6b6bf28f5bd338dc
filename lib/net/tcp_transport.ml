type conn = { fd : Unix.file_descr; write_lock : Mutex.t }

type t = {
  listener : Unix.file_descr;
  bound_port : int;
  on_message : payload:string -> unit;
  deliver_lock : Mutex.t;
  mutable peers : (int * (string * int)) list;
  outgoing : (int, conn) Hashtbl.t;
  down : (int, unit) Hashtbl.t;  (** peers that refused every connect attempt *)
  outgoing_lock : Mutex.t;
  mutable readers : Thread.t list;
  mutable accepted : Unix.file_descr list;
  readers_lock : Mutex.t;
  accept_thread : Thread.t option ref;
  mutable running : bool;
  mutable received : int;
  mutable send_failures : int;
}

let reader_loop t fd =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  (try
     let eof = ref false in
     while t.running && not !eof do
       let n = try Unix.read fd chunk 0 (Bytes.length chunk) with Unix.Unix_error _ -> 0 in
       if n = 0 then eof := true
       else begin
         Buffer.add_subbytes buf chunk 0 n;
         Rdb_consensus.Codec.read_frame buf (fun payload ->
             Mutex.lock t.deliver_lock;
             t.received <- t.received + 1;
             (try t.on_message ~payload
              with e ->
                Mutex.unlock t.deliver_lock;
                raise e);
             Mutex.unlock t.deliver_lock)
       end
     done
   with _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let accept_loop t =
  while t.running do
    match Unix.accept t.listener with
    | fd, _ ->
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      let th = Thread.create (reader_loop t) fd in
      Mutex.lock t.readers_lock;
      t.readers <- th :: t.readers;
      t.accepted <- fd :: t.accepted;
      Mutex.unlock t.readers_lock
    | exception Unix.Unix_error _ -> () (* listener closed during shutdown *)
  done

let create ?(host = "127.0.0.1") ?(port = 0) ~on_message () =
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listener Unix.SO_REUSEADDR true;
  Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  Unix.listen listener 64;
  let bound_port =
    match Unix.getsockname listener with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> failwith "Tcp_transport: unexpected socket address"
  in
  let t =
    {
      listener;
      bound_port;
      on_message;
      deliver_lock = Mutex.create ();
      peers = [];
      outgoing = Hashtbl.create 8;
      down = Hashtbl.create 8;
      outgoing_lock = Mutex.create ();
      readers = [];
      accepted = [];
      readers_lock = Mutex.create ();
      accept_thread = ref None;
      running = true;
      received = 0;
      send_failures = 0;
    }
  in
  t.accept_thread := Some (Thread.create accept_loop t);
  t

let port t = t.bound_port

let set_peers t peers = t.peers <- peers

let add_peer t id addr = t.peers <- (id, addr) :: List.remove_assoc id t.peers

(* Bounded reconnect-with-backoff: cluster nodes start in arbitrary order,
   so the first connect must tolerate a peer that is not listening yet.
   Five attempts, 10/20/40/80 ms apart (~150 ms worst case), then give up
   and let the caller count the failure.  A peer that already refused them
   all gets a single attempt per send until it accepts again: a replica
   that is down must not slow its peers' senders to a crawl, and one that
   comes back is reached by the next send. *)
let connect_peer ~tries host peer_port =
  let rec attempt tries delay =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, peer_port)) with
    | () ->
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      Some { fd; write_lock = Mutex.create () }
    | exception Unix.Unix_error _ ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      if tries <= 1 then None
      else begin
        Thread.delay delay;
        attempt (tries - 1) (delay *. 2.0)
      end
  in
  attempt tries 0.01

let get_conn t ~to_ =
  Mutex.lock t.outgoing_lock;
  let existing = Hashtbl.find_opt t.outgoing to_ in
  let conn =
    match existing with
    | Some c -> Some c
    | None -> (
      match List.assoc_opt to_ t.peers with
      | None -> None
      | Some (host, peer_port) -> (
        match connect_peer ~tries:(if Hashtbl.mem t.down to_ then 1 else 5) host peer_port with
        | Some c ->
          Hashtbl.remove t.down to_;
          Hashtbl.replace t.outgoing to_ c;
          Some c
        | None ->
          Hashtbl.replace t.down to_ ();
          None))
  in
  Mutex.unlock t.outgoing_lock;
  conn

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then begin
      let n = Unix.write fd b off (Bytes.length b - off) in
      go (off + n)
    end
  in
  go 0

let drop_conn t ~to_ =
  Mutex.lock t.outgoing_lock;
  (match Hashtbl.find_opt t.outgoing to_ with
  | Some c -> (
    Hashtbl.remove t.outgoing to_;
    try Unix.close c.fd with Unix.Unix_error _ -> ())
  | None -> ());
  Mutex.unlock t.outgoing_lock

let rec send ?(retried = false) t ~to_ payload =
  match get_conn t ~to_ with
  | None -> false
  | Some conn -> (
    Mutex.lock conn.write_lock;
    let result =
      try
        write_all conn.fd (Rdb_consensus.Codec.frame payload);
        Ok ()
      with Unix.Unix_error _ | Sys_error _ -> Error ()
    in
    Mutex.unlock conn.write_lock;
    match result with
    | Ok () -> true
    | Error () ->
      (* Stale connection (peer restarted): reconnect once. *)
      drop_conn t ~to_;
      if retried then false else send ~retried:true t ~to_ payload)

let send t ~to_ payload =
  let ok = send t ~to_ payload in
  if not ok then t.send_failures <- t.send_failures + 1;
  ok

let broadcast t payload =
  List.fold_left (fun acc (id, _) -> if send t ~to_:id payload then acc + 1 else acc) 0 t.peers

let messages_received t = t.received

let send_failures t = t.send_failures

let shutdown t =
  t.running <- false;
  (* close() does not wake threads blocked in accept()/read(); shutdown()
     does.  Shut the listener and every accepted socket down first, then
     close. *)
  (try Unix.shutdown t.listener Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  (try Unix.close t.listener with Unix.Unix_error _ -> ());
  Mutex.lock t.readers_lock;
  List.iter
    (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    t.accepted;
  t.accepted <- [];
  Mutex.unlock t.readers_lock;
  Mutex.lock t.outgoing_lock;
  Hashtbl.iter (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) t.outgoing;
  Hashtbl.reset t.outgoing;
  Mutex.unlock t.outgoing_lock;
  (match !(t.accept_thread) with Some th -> (try Thread.join th with _ -> ()) | None -> ());
  Mutex.lock t.readers_lock;
  let readers = t.readers in
  t.readers <- [];
  Mutex.unlock t.readers_lock;
  List.iter (fun th -> try Thread.join th with _ -> ()) readers
