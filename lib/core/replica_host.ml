module Msg = Rdb_consensus.Message
module Action = Rdb_consensus.Action
module Config = Rdb_consensus.Config
module Core = Rdb_consensus.Core
module St = Rdb_consensus.State_transfer
module Sha256 = Rdb_crypto.Sha256
module Cmac = Rdb_crypto.Cmac
module Vcache = Rdb_crypto.Verify_cache
module Mem_store = Rdb_storage.Mem_store
module Ledger = Rdb_chain.Ledger
module Block = Rdb_chain.Block
module Exec_sched = Rdb_replica.Exec_sched

type request = { client : int; payload : string }

type t = {
  id : int;
  core : Core.t;
  config : Config.t;
  mac : Cmac.key;  (** group MAC key for replica-to-replica traffic *)
  ledger : Ledger.t;
  mutable store : Mem_store.t;
  mutable applied : int;  (** highest sequence number applied to [store] *)
  mutable awaiting : int;
      (** stable checkpoint this replica's store fell behind and asked a
          state transfer for; 0 when none is pending *)
  held : Msg.batch Queue.t;  (** batches ordered while [awaiting], not yet executed *)
  seen : unit Vcache.t;
      (** MACs this replica has accepted, keyed by authenticated content plus
          tag: a duplicate delivery skips the CMAC recomputation, a forgery
          (different tag) can never alias a cached acceptance *)
  batch_size : int;
  pending : int Queue.t;  (** txn ids awaiting batching *)
  exec_threads : int;
  footprint : (client:int -> payload:string -> Exec_sched.footprint) option;
  admit : int -> bool;
  apply : Mem_store.t -> client:int -> payload:string -> string;
  lookup : int -> request option;
  send : dst:int -> tag:string -> Msg.t -> unit;
  reply : client:int -> Msg.t -> unit;
  mutable executed_txns : int;
}

let create ~core ~config ~id ~mac ~ledger ~batch_size ?(exec_threads = 1) ?footprint
    ?(admit = fun _ -> true) ~apply ~lookup ~send ~reply () =
  (* A reopened durable ledger already holds a chain: fast-forward the fresh
     core past the persisted tip so ordering resumes there instead of
     re-proposing sequence numbers the chain already contains.  The
     in-memory application state restarts empty on every replica alike —
     the chain is what survives. *)
  let tip = Ledger.next_seq ledger - 1 in
  if tip > 0 then
    ignore (Core.step core (Core.Install_checkpoint { seq = tip; state_digest = "" }));
  {
    id;
    core;
    config;
    mac;
    ledger;
    store = Mem_store.create ();
    applied = tip;
    awaiting = 0;
    held = Queue.create ();
    seen = Vcache.create ~capacity:4096;
    batch_size;
    pending = Queue.create ();
    exec_threads;
    footprint;
    admit;
    apply;
    lookup;
    send;
    reply;
    executed_txns = 0;
  }

let send h ~dst msg = h.send ~dst ~tag:(Cmac.mac h.mac (Msg.auth_string msg)) msg

let broadcast h msg =
  for dst = 0 to h.config.Config.n - 1 do
    if dst <> h.id then send h ~dst msg
  done

(* Conflict-aware parallel execution of one batch on real OCaml domains.
   The batch is partitioned by Exec_sched into key-disjoint lanes separated
   by barrier rounds.  Mem_store is not thread-safe, so a domain never
   touches the shared store: each lane applies its requests against a
   private staging store pre-seeded with the lane's declared footprint, and
   after joining, the main thread merges every declared write key back.
   Within a round the lanes' write sets are disjoint (Exec_sched's
   invariant), so the merge order cannot matter and the final state equals
   serial in-order execution.  Correctness leans on the footprint contract:
   [apply] must not read or write keys outside the declared footprint
   (undeclared reads see an empty staging slot, undeclared writes are
   silently dropped at the merge). *)
let execute_parallel h (batch : Msg.batch) fp_of =
  let lookup =
    Array.of_list (List.map (fun (r : Msg.request_ref) -> h.lookup r.Msg.txn_id) batch.Msg.reqs)
  in
  let fps =
    Array.map
      (function
        | None -> { Exec_sched.reads = []; writes = [] }
        | Some req -> fp_of ~client:req.client ~payload:req.payload)
      lookup
  in
  let plan = Exec_sched.schedule ~lanes:h.exec_threads fps in
  let results = Array.make (Array.length lookup) "missing-payload" in
  let run_lane idxs () =
    let staged = Mem_store.create () in
    List.iter
      (fun i ->
        List.iter
          (fun key ->
            match Mem_store.get h.store key with
            | Some v -> Mem_store.put staged key v
            | None -> ())
          (fps.(i).Exec_sched.reads @ fps.(i).Exec_sched.writes))
      idxs;
    let lane_results =
      List.map
        (fun i ->
          match lookup.(i) with
          | None -> (i, "missing-payload")
          | Some req -> (i, h.apply staged ~client:req.client ~payload:req.payload))
        idxs
    in
    (staged, lane_results)
  in
  List.iter
    (fun (round : Exec_sched.round) ->
      let lanes = Array.to_list round |> List.filter (fun idxs -> idxs <> []) in
      match lanes with
      | [] -> ()
      | first :: rest ->
        (* Spawn the other lanes; run the first on this domain. *)
        let spawned = List.map (fun idxs -> Domain.spawn (run_lane idxs)) rest in
        let outcomes = run_lane first () :: List.map Domain.join spawned in
        List.iter
          (fun (staged, lane_results) ->
            List.iter (fun (i, res) -> results.(i) <- res) lane_results;
            List.iter
              (fun (i, _) ->
                List.iter
                  (fun key ->
                    match Mem_store.get staged key with
                    | Some v -> Mem_store.put h.store key v
                    | None -> Mem_store.delete h.store key)
                  fps.(i).Exec_sched.writes)
              lane_results)
          outcomes)
    plan.Exec_sched.rounds;
  Array.to_list results

(* Execution: apply every request of the batch on this replica's store, then
   append a block whose linkage is the commit certificate (§4.6). *)
let execute h (batch : Msg.batch) =
  if batch.Msg.seq <= h.applied then
    (* Already covered by a state transfer: the snapshot included this
       batch's effects, so re-applying would double-execute. *)
    List.map (fun _ -> "state-transferred") batch.Msg.reqs
  else begin
    h.executed_txns <- h.executed_txns + List.length batch.Msg.reqs;
    let results =
      match h.footprint with
      | Some fp when h.exec_threads >= 2 -> execute_parallel h batch fp
      | _ ->
        List.map
          (fun (r : Msg.request_ref) ->
            match h.lookup r.Msg.txn_id with
            | None -> "missing-payload"
            | Some req -> h.apply h.store ~client:req.client ~payload:req.payload)
          batch.Msg.reqs
    in
    let cert = List.init (Config.commit_quorum h.config) (fun i -> (i, "commit-share")) in
    if Ledger.next_seq h.ledger = batch.Msg.seq then
      Ledger.append h.ledger
        {
          Block.seq = batch.Msg.seq;
          view = batch.Msg.view;
          digest = batch.Msg.digest;
          txn_count = List.length batch.Msg.reqs;
          link = Block.Certificate cert;
        };
    h.applied <- max h.applied batch.Msg.seq;
    results
  end

let rec dispatch h actions =
  List.iter
    (fun (_inst, a) ->
      match a with
      | Action.Broadcast m -> broadcast h m
      | Action.Send (dst, m) -> send h ~dst m
      | Action.Send_client (client, m) -> h.reply ~client m
      | Action.Execute batch ->
        (* A store missing batches the core skipped must not run later ones
           on top: hold them until the transfer lands (see [resume]). *)
        if h.awaiting > 0 then Queue.push batch h.held else run h batch
      | Action.Stable_checkpoint seq ->
        (* A replica behind the stable checkpoint (it was crashed, joined
           late, or heard the checkpoint quorum before the batches under it)
           has a core that just skipped those batches.  It catches up
           through checkpoint-driven state transfer: it broadcasts a
           State_request, and any peer holding the stable-checkpoint
           certificate answers with the retained chain segment plus its
           application-state export. *)
        if h.applied < seq || Ledger.next_seq h.ledger <= seq then begin
          if h.applied < seq then h.awaiting <- max h.awaiting seq;
          broadcast h (St.request h.ledger ~from:h.id)
        end
        else begin
          Ledger.checkpoint h.ledger ~seq ~state_digest:(Mem_store.digest h.store);
          ignore (Ledger.prune_below h.ledger seq)
        end)
    actions

and run h batch =
  let results = execute h batch in
  (* Per-request results ride in the Reply actions the core emits on
     Executed; the batch's result digest is the agreed result string. *)
  let result = Sha256.hex (String.sub (Sha256.digest (String.concat "|" results)) 0 8) in
  dispatch h
    (Core.step h.core
       (Core.Executed { seq = batch.Msg.seq; state_digest = Mem_store.digest h.store; result }))

(* The awaited transfer has landed: execute what was held, in order.
   Batches the imported state already covers are skipped by [execute]. *)
let resume h =
  h.awaiting <- 0;
  let held = List.of_seq (Queue.to_seq h.held) in
  Queue.clear h.held;
  List.iter (run h) held

let input h i = dispatch h (Core.step h.core i)

let enqueue h txn_id = Queue.push txn_id h.pending
let clear_pending h = Queue.clear h.pending

let form_batches h ~force =
  if Core.leads_any h.core then begin
    let form k =
      let txns = List.init k (fun _ -> Queue.pop h.pending) in
      let reqs = List.filter_map h.lookup txns in
      if List.compare_length_with reqs k = 0 && List.for_all h.admit txns then begin
        (* One string representation of the whole batch, hashed once. *)
        let payloads = List.map (fun r -> r.payload) reqs in
        let digest = Sha256.digest (String.concat "\x00" payloads) in
        let reqs = List.map2 (fun txn_id r -> { Msg.client = r.client; txn_id }) txns reqs in
        let wire_bytes = List.fold_left (fun acc p -> acc + String.length p) 0 payloads in
        let _, actions, _ = Core.propose h.core ~reqs ~digest ~wire_bytes in
        dispatch h actions
      end
    in
    while Queue.length h.pending >= h.batch_size do
      form h.batch_size
    done;
    if force && not (Queue.is_empty h.pending) then form (Queue.length h.pending)
  end

(* Verify-sharing on the MAC check: the key covers the authenticated content
   *and* the tag, so only an exact re-delivery (retransmission or duplicate)
   hits; a forged tag always reaches Cmac.verify. *)
let authentic h msg ~tag =
  let auth = Msg.auth_string msg in
  let key = auth ^ "\x00" ^ tag in
  Vcache.mem h.seen key
  ||
  let ok = Cmac.verify h.mac auth ~tag in
  if ok then Vcache.add h.seen key ();
  ok

let mac_valid h msg ~tag = Cmac.verify h.mac (Msg.auth_string msg) ~tag

(* Donor side of a state transfer: answer with the stable-checkpoint
   certificate, the retained chain segment, and a full export of the
   application store (execution is real, so the requester cannot
   reconstruct application state from block metadata alone). *)
let serve_state h ~low ~requester =
  (* A replica itself waiting for state has nothing current to give. *)
  if h.awaiting = 0 then begin
    let app_export = ref [] in
    Mem_store.iter h.store (fun k v -> app_export := (k, v) :: !app_export);
    match
      St.serve h.ledger ~stable:(Core.stable_certificate h.core) ~low ~from:h.id
        ~app_seq:h.applied ~app_export:!app_export
    with
    | Some resp -> send h ~dst:requester resp
    | None -> ()
  end

(* Requester side: verify the certificate and segment, install the chain,
   rebuild the application store from the export and fast-forward the core.
   A donor exactly level with our ledger (possible when a durable chain
   survived a restart that the in-memory store did not) cannot advance the
   ledger, but its verified export still restores the application state.
   Once the store reaches the checkpoint a pending transfer waits for, the
   held batches run on top of it. *)
let admit_state h msg =
  let quorum = Config.commit_quorum h.config in
  let import ~app_seq ~app_export =
    if app_seq > h.applied then begin
      let st = Mem_store.create () in
      List.iter (fun (k, v) -> Mem_store.put st k v) app_export;
      h.store <- st;
      h.applied <- app_seq
    end
  in
  let install_core ~seq ~state_digest =
    ignore (Core.step h.core (Core.Install_checkpoint { seq; state_digest }))
  in
  (if not (St.admit ~commit_quorum:quorum h.ledger ~install_core ~import msg) then
     match msg with
     | Msg.State_response { last_stable; state_digest; cert; blocks; app_seq; app_export; _ } -> (
       match St.verify ~commit_quorum:quorum ~last_stable ~state_digest ~cert ~blocks with
       | Ok () when app_seq > h.applied ->
         import ~app_seq ~app_export;
         install_core ~seq:last_stable ~state_digest
       | Ok () | Error _ -> ())
     | _ -> ());
  if h.awaiting > 0 && h.applied >= h.awaiting then resume h

(* State transfer moves ledger segments and application state, which the
   pure core never holds: both sides are handled here, at host level. *)
let deliver h msg =
  match msg with
  | Msg.State_request { low; from } -> serve_state h ~low ~requester:from
  | Msg.State_response _ -> admit_state h msg
  | _ -> input h (Core.Deliver { inst = 0; msg })

let request_state h = broadcast h (St.request h.ledger ~from:h.id)
let view h = Core.view h.core ~inst:0
let leads h = Core.leads_any h.core
let last_executed h = Core.last_executed h.core
let applied h = h.applied
let store h = h.store
let ledger h = h.ledger
let executed_txns h = h.executed_txns
let mac_cache_hits h = Vcache.hits h.seen
