module Msg = Rdb_consensus.Message
module Config = Rdb_consensus.Config
module Core = Rdb_consensus.Core
module Client = Rdb_consensus.Pbft_client
module Signer = Rdb_crypto.Signer
module Cmac = Rdb_crypto.Cmac
module Vcache = Rdb_crypto.Verify_cache
module Mem_store = Rdb_storage.Mem_store
module Ledger = Rdb_chain.Ledger
module Rng = Rdb_des.Rng
module Trace = Rdb_obs.Trace
module Host = Replica_host

type config = {
  n : int;
  batch_size : int;
  checkpoint_interval : int;
  seed : int64;
  durable_dir : string option;
      (** back each replica's ledger with the WAL + B-tree block store under
          this directory (one subdirectory per replica); [None] keeps the
          in-memory backend.  Reopening the same directory crash-recovers
          the chains and resumes appending at the persisted tip *)
  exec_threads : int;
      (** execute lanes per replica; >= 2 (together with a [footprint]
          callback at {!create}) runs each batch through the conflict-aware
          {!Rdb_replica.Exec_sched} plan on real OCaml domains *)
}

let default_config =
  {
    n = 4;
    batch_size = 10;
    checkpoint_interval = 50;
    seed = 0x4C6F63616CL;
    durable_dir = None;
    exec_threads = 1;
  }


type t = {
  cfg : config;
  ccfg : Config.t;
  hosts : Host.t array;
  client_signer : Signer.t;
  queue : (int * int * Msg.t * string) Queue.t;  (** (origin, dst, message, mac tag) *)
  requests : (int, Host.request * string) Hashtbl.t;  (** txn_id -> request, client signature *)
  clients : (int, Client.t) Hashtbl.t;
  completed : (int * string) list ref;  (** newest first *)
  mutable next_txn : int;
  mutable crashed : int list;
  mutable auth_failures : int;
  verified_reqs : unit Vcache.t;
      (** client signatures the primary has accepted, keyed by txn id: a
          view change re-batches pending requests without re-verifying *)
  (* Message-flow trace: this runtime has no simulated clock, so delivery
     order (the step index) stands in for time — one "tick" per message. *)
  obs_trace : Trace.t option;
  mutable trace_step : int;
}

(* A single pre-shared group secret, as in a permissioned deployment. *)
let group_secret = "local-runtime-k!"

let client_for clients ccfg id =
  match Hashtbl.find_opt clients id with
  | Some c -> c
  | None ->
    let c = Client.create ccfg ~id in
    Hashtbl.add clients id c;
    c

let create ?(config = default_config) ?(trace = false) ?footprint ~apply () =
  if config.n < 4 then invalid_arg "Local_runtime.create: need at least 4 replicas";
  if config.batch_size < 1 then invalid_arg "Local_runtime.create: bad batch size";
  if config.exec_threads < 1 || config.exec_threads > 64 then
    invalid_arg "Local_runtime.create: exec_threads must be in [1, 64]";
  let ccfg = Config.make ~checkpoint_interval:config.checkpoint_interval ~n:config.n () in
  let client_signer = Signer.create (Rng.create config.seed) Signer.Ed25519 in
  let client_verifier = Signer.verifier client_signer in
  let obs_trace =
    if not trace then None
    else begin
      let tr = Trace.create (Rdb_des.Sim.create ()) in
      for id = 0 to config.n - 1 do
        Trace.set_process_name tr ~pid:id (Printf.sprintf "replica %d" id)
      done;
      Some tr
    end
  in
  let queue = Queue.create () and requests = Hashtbl.create 256 in
  let clients = Hashtbl.create 16 and completed = ref [] in
  let verified_reqs = Vcache.create ~capacity:4096 in
  (* The primary verifies each client signature before batching (§4.3):
     real verification over the stored payloads.  Verify-sharing: a request
     admitted once (then re-batched by a new primary after a view change)
     skips straight to the memo table — the stored payload and signature
     are immutable under their txn id. *)
  let admit txn_id =
    match Hashtbl.find_opt requests txn_id with
    | None -> false
    | Some ((req : Host.request), signature) ->
      let key = string_of_int txn_id in
      Vcache.mem verified_reqs key
      ||
      let ok =
        Signer.verify client_verifier (Printf.sprintf "%d|%s" req.client req.payload) ~signature
      in
      if ok then Vcache.add verified_reqs key ();
      ok
  in
  let reply ~client msg =
    List.iter
      (function
        | Client.Complete { txn_id; result } -> completed := (txn_id, result) :: !completed
        | Client.Send _ | Client.Broadcast_request _ -> ())
      (Client.handle_reply (client_for clients ccfg client) msg)
  in
  let host id =
    let ledger =
      match config.durable_dir with
      | Some dir ->
        let dir = Filename.concat dir (Printf.sprintf "replica-%d" id) in
        Ledger.open_durable ~dir ~primary_id:0
      | None -> Ledger.create ~primary_id:0
    in
    Host.create ~core:(Core.pbft ccfg ~id) ~config:ccfg ~id ~mac:(Cmac.of_secret group_secret)
      ~ledger ~batch_size:config.batch_size ~exec_threads:config.exec_threads ?footprint ~admit
      ~apply:(apply ~replica:id)
      ~lookup:(fun txn_id -> Option.map fst (Hashtbl.find_opt requests txn_id))
      ~send:(fun ~dst ~tag msg -> Queue.push (id, dst, msg, tag) queue)
      ~reply ()
  in
  {
    cfg = config;
    ccfg;
    hosts = Array.init config.n host;
    client_signer;
    queue;
    requests;
    clients;
    completed;
    next_txn = 0;
    crashed = [];
    auth_failures = 0;
    verified_reqs;
    obs_trace;
    trace_step = 0;
  }

let is_crashed t id = List.mem id t.crashed

(* Cluster-level view/primary reads come from a live replica: a crashed
   replica's core is frozen in the old view. *)
let live_replica t =
  let rec find i = if i >= t.cfg.n then 0 else if is_crashed t i then find (i + 1) else i in
  find 0

let view t = Host.view t.hosts.(live_replica t)

let primary t = Config.primary_of_view t.ccfg (view t)

let try_batch t ~force =
  let p = primary t in
  if not (is_crashed t p) then Host.form_batches t.hosts.(p) ~force

let submit t ~client ~payload =
  let txn_id = t.next_txn in
  t.next_txn <- txn_id + 1;
  let signature = Signer.sign t.client_signer (Printf.sprintf "%d|%s" client payload) in
  Hashtbl.replace t.requests txn_id ({ Host.client; payload }, signature);
  Host.enqueue t.hosts.(primary t) txn_id;
  ignore (Client.submit (client_for t.clients t.ccfg client) ~txn_id);
  try_batch t ~force:false;
  txn_id

let flush t = try_batch t ~force:true

let step t =
  match Queue.take_opt t.queue with
  | None -> false
  | Some (origin, dst, msg, tag) ->
    (* A crash silences the replica's not-yet-delivered outbound too: its
       queued messages model sends that never made it onto the wire. *)
    if not (is_crashed t origin) && not (is_crashed t dst) then begin
      (match t.obs_trace with
      | Some tr ->
        t.trace_step <- t.trace_step + 1;
        Trace.complete tr ~pid:dst ~tid:0 ~name:(Msg.type_name msg) ~ts:(t.trace_step * 1000)
          ~dur:1000
      | None -> ());
      let h = t.hosts.(dst) in
      if Host.authentic h msg ~tag then Host.deliver h msg
      else t.auth_failures <- t.auth_failures + 1
    end;
    true

let run t =
  while step t do
    ()
  done

let crash t id =
  if id < 0 || id >= t.cfg.n then invalid_arg "Local_runtime.crash: no such replica";
  if not (List.mem id t.crashed) then t.crashed <- id :: t.crashed

let recover t id =
  if id < 0 || id >= t.cfg.n then invalid_arg "Local_runtime.recover: no such replica";
  t.crashed <- List.filter (fun c -> c <> id) t.crashed;
  (* The recovered replica asks for a state transfer right away instead of
     waiting out a full checkpoint interval.  If no peer holds a stable
     certificate yet the request goes unanswered, and the next stable
     checkpoint its own core observes triggers another one. *)
  Host.request_state t.hosts.(id)

let applied t id = Host.applied t.hosts.(id)

(* Durable backends flush their WAL and persist counters on close, so a
   later [create] over the same [durable_dir] resumes at the tip. *)
let close t = Array.iter (fun h -> Ledger.close (Host.ledger h)) t.hosts

let force_view_change t =
  Array.iteri (fun id h -> if not (is_crashed t id) then Host.input h (Core.Suspect 0)) t.hosts;
  run t;
  (* Requests whose replies never reached the client — still pending at the
     old primary, or admitted into a batch the crash lost — are re-batched
     by the new primary (in a networked deployment clients retransmit; here
     the runtime still holds the payloads).  Completed transactions are
     never re-proposed (exactly-once), and verify-sharing means a re-batched
     admitted request costs a memo-table probe, not a second signature
     verification. *)
  let done_ = Hashtbl.create 64 in
  List.iter (fun (id, _) -> Hashtbl.replace done_ id ()) !(t.completed);
  Array.iter Host.clear_pending t.hosts;
  let p = t.hosts.(primary t) in
  for txn_id = 0 to t.next_txn - 1 do
    if Hashtbl.mem t.requests txn_id && not (Hashtbl.mem done_ txn_id) then Host.enqueue p txn_id
  done;
  try_batch t ~force:false

let completed t = List.rev !(t.completed)

let store t id = Host.store t.hosts.(id)

let ledger t id = Host.ledger t.hosts.(id)

let last_executed t id = Host.last_executed t.hosts.(id)

let auth_failures t = t.auth_failures

let verify_cache_hits t =
  Array.fold_left (fun acc h -> acc + Host.mac_cache_hits h) (Vcache.hits t.verified_reqs) t.hosts

let trace_json t = match t.obs_trace with Some tr -> Some (Trace.to_string tr) | None -> None

let inject_forged_message t ~dst =
  let msg = Msg.Prepare { view = view t; seq = 999_999; digest = "forged"; from = 0 } in
  (* The adversary is not a replica: route around the origin-crash drop by
     naming a live replica as the nominal origin. *)
  Queue.push (live_replica t, dst, msg, String.make 16 '\x00') t.queue

let verify t =
  let live = List.filter (fun id -> not (is_crashed t id)) (List.init t.cfg.n Fun.id) in
  match live with
  | [] -> Error "no live replicas"
  | first :: rest ->
    let cum0 = Ledger.cumulative_digest (ledger t first) in
    let state0 = Mem_store.digest (store t first) in
    let rec check = function
      | [] -> Ok ()
      | id :: more ->
        if not (String.equal (Ledger.cumulative_digest (ledger t id)) cum0) then
          Error (Printf.sprintf "replica %d ledger diverged from replica %d" id first)
        else if not (String.equal (Mem_store.digest (store t id)) state0) then
          Error (Printf.sprintf "replica %d state diverged from replica %d" id first)
        else begin
          match
            Ledger.verify (ledger t id) ~check_certificate:(fun ~seq:_ ~digest:_ shares ->
                List.length shares >= Config.commit_quorum t.ccfg)
          with
          | Ok () -> check more
          | Error e -> Error (Printf.sprintf "replica %d ledger: %s" id e)
        end
    in
    check rest
