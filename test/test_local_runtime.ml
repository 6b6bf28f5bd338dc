(* Tests for the embeddable in-process runtime: real signatures and MACs on
   the critical path, batching, agreement across replicas, crash tolerance,
   view changes, checkpointing, and rejection of forged traffic.  Plus the
   replica host it runs every replica on, driven directly over a plain
   in-memory queue: batch admission, the MAC memo, block certificates. *)

module Rt = Rdb_core.Local_runtime
module Mem_store = Rdb_storage.Mem_store
module Ledger = Rdb_chain.Ledger

let check = Alcotest.check

let kv_apply ~replica:_ store ~client:_ ~payload =
  (match String.split_on_char '=' payload with
  | [ k; v ] -> Mem_store.put store k v
  | _ -> Mem_store.put store payload "1");
  "ok"

let mk ?(batch_size = 4) () = Rt.create ~config:{ Rt.default_config with Rt.batch_size } ~apply:kv_apply ()

let test_basic_agreement () =
  let rt = mk () in
  let ids = List.init 8 (fun i -> Rt.submit rt ~client:(100 + i) ~payload:(Printf.sprintf "k%d=v%d" i i)) in
  Rt.run rt;
  List.iter (fun id -> Alcotest.(check bool) "completed" true (List.mem_assoc id (Rt.completed rt))) ids;
  for r = 0 to 3 do
    for i = 0 to 7 do
      check
        Alcotest.(option string)
        (Printf.sprintf "replica %d key %d" r i)
        (Some (Printf.sprintf "v%d" i))
        (Mem_store.get (Rt.store rt r) (Printf.sprintf "k%d" i))
    done
  done;
  (match Rt.verify rt with Ok () -> () | Error e -> Alcotest.fail e)

let test_partial_batch_needs_flush () =
  let rt = mk () in
  let id = Rt.submit rt ~client:1 ~payload:"solo=1" in
  Rt.run rt;
  Alcotest.(check bool) "partial batch pending" false (List.mem_assoc id (Rt.completed rt));
  Rt.flush rt;
  Rt.run rt;
  Alcotest.(check bool) "flushed and completed" true (List.mem_assoc id (Rt.completed rt))

let test_ledgers_identical () =
  let rt = mk () in
  for i = 0 to 15 do
    ignore (Rt.submit rt ~client:1 ~payload:(Printf.sprintf "x%d=%d" i i))
  done;
  Rt.run rt;
  let d0 = Ledger.cumulative_digest (Rt.ledger rt 0) in
  for r = 1 to 3 do
    check Alcotest.string
      (Printf.sprintf "ledger %d digest" r)
      (Rdb_crypto.Sha256.hex d0)
      (Rdb_crypto.Sha256.hex (Ledger.cumulative_digest (Rt.ledger rt r)))
  done;
  check Alcotest.int "blocks = batches + genesis" 5 (Ledger.length (Rt.ledger rt 0))

let test_backup_crash () =
  let rt = mk () in
  Rt.crash rt 3;
  for i = 0 to 7 do
    ignore (Rt.submit rt ~client:2 ~payload:(Printf.sprintf "c%d=%d" i i))
  done;
  Rt.run rt;
  check Alcotest.int "all executed on live replicas" 2 (Rt.last_executed rt 0);
  (match Rt.verify rt with Ok () -> () | Error e -> Alcotest.fail e);
  check Alcotest.int "crashed replica executed nothing" 0 (Rt.last_executed rt 3)

let test_view_change_after_primary_crash () =
  let rt = mk ~batch_size:2 () in
  ignore (Rt.submit rt ~client:1 ~payload:"a=1");
  ignore (Rt.submit rt ~client:2 ~payload:"b=2");
  Rt.run rt;
  Rt.crash rt 0;
  Rt.force_view_change rt;
  check Alcotest.int "view advanced" 1 (Rt.view rt);
  check Alcotest.int "primary rotated" 1 (Rt.primary rt);
  ignore (Rt.submit rt ~client:3 ~payload:"c=3");
  ignore (Rt.submit rt ~client:4 ~payload:"d=4");
  Rt.run rt;
  List.iter
    (fun r ->
      check Alcotest.(option string) "post-view-change write" (Some "3")
        (Mem_store.get (Rt.store rt r) "c"))
    [ 1; 2; 3 ];
  (match Rt.verify rt with Ok () -> () | Error e -> Alcotest.fail e)

let test_forged_messages_rejected () =
  let rt = mk () in
  Rt.inject_forged_message rt ~dst:2;
  Rt.inject_forged_message rt ~dst:1;
  Rt.run rt;
  check Alcotest.int "both rejected by MAC check" 2 (Rt.auth_failures rt);
  ignore (Rt.submit rt ~client:1 ~payload:"still=works");
  Rt.flush rt;
  Rt.run rt;
  (match Rt.verify rt with Ok () -> () | Error e -> Alcotest.fail e);
  check Alcotest.(option string) "cluster unharmed" (Some "works")
    (Mem_store.get (Rt.store rt 0) "still")

let test_checkpoint_prunes () =
  let rt =
    Rt.create
      ~config:{ Rt.default_config with Rt.batch_size = 1; checkpoint_interval = 5 }
      ~apply:kv_apply ()
  in
  for i = 0 to 24 do
    ignore (Rt.submit rt ~client:1 ~payload:(Printf.sprintf "k%d=%d" i i))
  done;
  Rt.run rt;
  check Alcotest.int "executed 25 batches" 25 (Rt.last_executed rt 0);
  (* Retained chain was pruned at the stable checkpoint but total length and
     the cumulative digest survive. *)
  check Alcotest.int "length counts all blocks" 26 (Ledger.length (Rt.ledger rt 0));
  Alcotest.(check bool) "old blocks pruned" true (Ledger.find (Rt.ledger rt 0) 3 = None);
  (match Rt.verify rt with Ok () -> () | Error e -> Alcotest.fail e)

let test_recovery_with_state_transfer () =
  (* A replica crashes, misses work, recovers, and catches up through the
     checkpoint + state-transfer path; afterwards the whole cluster agrees
     again — including the recovered replica. *)
  let rt =
    Rt.create
      ~config:{ Rt.default_config with Rt.batch_size = 1; checkpoint_interval = 4 }
      ~apply:kv_apply ()
  in
  for i = 0 to 3 do
    ignore (Rt.submit rt ~client:1 ~payload:(Printf.sprintf "pre%d=%d" i i))
  done;
  Rt.run rt;
  check Alcotest.int "replica 3 in sync before crash" 4 (Rt.last_executed rt 3);
  Rt.crash rt 3;
  for i = 0 to 5 do
    ignore (Rt.submit rt ~client:1 ~payload:(Printf.sprintf "missed%d=%d" i i))
  done;
  Rt.run rt;
  check Alcotest.int "replica 3 missed work" 4 (Rt.last_executed rt 3);
  Rt.recover rt 3;
  (* Enough new work to cross the next checkpoint boundary. *)
  for i = 0 to 7 do
    ignore (Rt.submit rt ~client:1 ~payload:(Printf.sprintf "post%d=%d" i i))
  done;
  Rt.run rt;
  Alcotest.(check bool) "replica 3 caught up" true (Rt.applied rt 3 >= 12);
  check Alcotest.(option string) "missed write transferred" (Some "2")
    (Rdb_storage.Mem_store.get (Rt.store rt 3) "missed2");
  check Alcotest.(option string) "post-recovery write executed" (Some "7")
    (Rdb_storage.Mem_store.get (Rt.store rt 3) "post7");
  match Rt.verify rt with Ok () -> () | Error e -> Alcotest.fail e

let test_determinism_across_runs () =
  let run_once () =
    let rt = mk () in
    for i = 0 to 11 do
      ignore (Rt.submit rt ~client:(i mod 3) ~payload:(Printf.sprintf "k%d=%d" i i))
    done;
    Rt.run rt;
    Rdb_crypto.Sha256.hex (Mem_store.digest (Rt.store rt 0))
  in
  check Alcotest.string "identical state digests" (run_once ()) (run_once ())

let test_config_validation () =
  Alcotest.check_raises "too few replicas"
    (Invalid_argument "Local_runtime.create: need at least 4 replicas") (fun () ->
      ignore (Rt.create ~config:{ Rt.default_config with Rt.n = 3 } ~apply:kv_apply ()))

(* ---- the replica host, without a runtime around it ------------------------- *)

module Host = Rdb_core.Replica_host
module Msg = Rdb_consensus.Message

(* Four hosts whose [send] pushes onto one FIFO; [drain] delivers it until
   quiet, dropping what fails the MAC check, and returns the messages
   [defer] picked out instead of delivering.  Txn id [t] below 1000 is
   client 1's request "t<t>"; larger ids have no body. *)
let host_cluster ?admit ?checkpoint_interval ~batch_size () =
  let config = Rdb_consensus.Config.make ?checkpoint_interval ~n:4 () in
  let wire = Queue.create () in
  let lookup t = if t < 1000 then Some { Host.client = 1; payload = "t" ^ string_of_int t } else None in
  let apply st ~client:_ ~payload = Mem_store.put st payload "1"; "ok" in
  let hosts =
    Array.init 4 (fun id ->
        Host.create ~core:(Rdb_consensus.Core.pbft config ~id) ~config ~id
          ~mac:(Rdb_crypto.Cmac.of_secret "replica-host-key") ~ledger:(Ledger.create ~primary_id:0)
          ~batch_size ?admit ~apply ~lookup ~send:(fun ~dst ~tag m -> Queue.push (dst, tag, m) wire)
          ~reply:(fun ~client:_ _ -> ()) ())
  in
  let drain ?(defer = fun _ _ -> false) () =
    let deferred = ref [] in
    while not (Queue.is_empty wire) do
      let ((dst, tag, m) as frame) = Queue.pop wire in
      if defer dst m then deferred := frame :: !deferred
      else if Host.authentic hosts.(dst) m ~tag then Host.deliver hosts.(dst) m
    done;
    List.rev !deferred
  in
  let propose txns = List.iter (Host.enqueue hosts.(0)) txns; Host.form_batches hosts.(0) ~force:false in
  (config, hosts, wire, propose, drain)

let test_host_admit_gates_batches () =
  (* Txn 1 fails admission (a bad client signature, say) and txn 1000 has
     no body: no batch holding either is proposed. *)
  let _, hosts, wire, propose, drain = host_cluster ~admit:(fun t -> t <> 1) ~batch_size:2 () in
  propose [ 0; 1 ];
  propose [ 2; 1000 ];
  Alcotest.(check bool) "nothing proposed" true (Queue.is_empty wire);
  propose [ 2; 3 ];
  ignore (drain ());
  Array.iter
    (fun h ->
      check Alcotest.(pair int int) "one batch" (1, 2) (Host.last_executed h, Host.executed_txns h);
      check Alcotest.(list (option string)) "only it applied" [ None; Some "1" ]
        (List.map (Mem_store.get (Host.store h)) [ "t0"; "t3" ]))
    hosts

let test_host_mac_memo () =
  let _, hosts, wire, propose, drain = host_cluster ~batch_size:1 () in
  propose [ 0 ];
  let dst, tag, m = Queue.peek wire in
  let forged = String.mapi (fun i c -> if i = 0 then Char.chr (Char.code c lxor 1) else c) tag in
  let tampered = match m with Msg.Pre_prepare p -> Msg.Pre_prepare { p with seq = 2 } | m -> m in
  let probes = [ (m, tag); (m, tag); (m, forged); (tampered, tag) ] in
  check Alcotest.(list bool) "genuine, re-delivered, forged tag, tampered" [ true; true; false; false ]
    (List.map (fun (m, tag) -> Host.authentic hosts.(dst) m ~tag) probes);
  check Alcotest.int "only the exact re-delivery hits the memo" 1 (Host.mac_cache_hits hosts.(dst));
  ignore (drain ());
  Array.iter (fun h -> check Alcotest.int "executed despite the probes" 1 (Host.last_executed h)) hosts

let test_host_block_certificates () =
  let config, hosts, _, propose, drain = host_cluster ~batch_size:2 () in
  List.iter (fun t -> propose [ t; t + 1 ]; ignore (drain ())) [ 0; 2; 4 ];
  let chain h = Ledger.retained (Host.ledger h) in
  check Alcotest.int "genesis + one block per batch" 4 (List.length (chain hosts.(0)));
  Array.iter (fun h -> Alcotest.(check bool) "identical ledgers" true (chain h = chain hosts.(0))) hosts;
  let check_certificate ~seq:_ ~digest:_ cert =
    List.length (List.sort_uniq compare (List.map fst cert)) = Rdb_consensus.Config.commit_quorum config
    && List.for_all (fun (_, share) -> share = "commit-share") cert
  in
  Alcotest.(check (result unit string)) "2f+1 commit shares" (Ok ())
    (Ledger.verify (Host.ledger hosts.(0)) ~check_certificate)

let test_host_holds_batches_until_transfer () =
  (* Checkpoints every 2 batches of 1.  Replica 3 hears nothing of seqs
     1-5, so its core skips to the next stable checkpoint it hears and
     asks for state.  Its state responses are held back while the group
     orders more batches: those must wait for the transfer, not run on the
     empty store (a transfer from a donor no further along would then be
     refused and the store stay wrong for good). *)
  let _, hosts, wire, propose, drain = host_cluster ~checkpoint_interval:2 ~batch_size:1 () in
  List.iter (fun t -> propose [ t ]) [ 0; 1; 2; 3; 4 ];
  ignore (drain ~defer:(fun dst _ -> dst = 3) ());
  let state_to_3 dst = function Msg.State_response _ -> dst = 3 | _ -> false in
  List.iter (fun t -> propose [ t ]) [ 5; 6; 7; 8 ];
  let held = drain ~defer:state_to_3 () in
  propose [ 9 ];
  let held = held @ drain ~defer:state_to_3 () in
  Alcotest.(check bool) "state was requested" true (held <> []);
  check Alcotest.int "nothing ran on the empty store" 0 (Host.applied hosts.(3));
  List.iter (fun frame -> Queue.push frame wire) held;
  ignore (drain ());
  let digest h = Rdb_crypto.Sha256.hex (Mem_store.digest (Host.store h)) in
  Array.iter
    (fun h ->
      check Alcotest.int "all applied" 10 (Host.applied h);
      check Alcotest.string "same state" (digest hosts.(0)) (digest h))
    hosts;
  Alcotest.(check bool) "replica 3 executed only what followed the transfer" true
    (Host.executed_txns hosts.(3) < Host.executed_txns hosts.(0))

let () =
  Alcotest.run "local_runtime"
    [
      ( "runtime",
        [
          Alcotest.test_case "agreement + execution" `Quick test_basic_agreement;
          Alcotest.test_case "partial batch flush" `Quick test_partial_batch_needs_flush;
          Alcotest.test_case "identical ledgers" `Quick test_ledgers_identical;
          Alcotest.test_case "backup crash tolerated" `Quick test_backup_crash;
          Alcotest.test_case "view change" `Quick test_view_change_after_primary_crash;
          Alcotest.test_case "forged messages rejected" `Quick test_forged_messages_rejected;
          Alcotest.test_case "checkpoint pruning" `Quick test_checkpoint_prunes;
          Alcotest.test_case "recovery + state transfer" `Quick test_recovery_with_state_transfer;
          Alcotest.test_case "determinism" `Quick test_determinism_across_runs;
          Alcotest.test_case "config validation" `Quick test_config_validation;
        ] );
      ( "replica host",
        [
          Alcotest.test_case "admission gates batch formation" `Quick test_host_admit_gates_batches;
          Alcotest.test_case "MAC memo and forgeries" `Quick test_host_mac_memo;
          Alcotest.test_case "one block certificate per batch" `Quick test_host_block_certificates;
          Alcotest.test_case "laggard holds batches until its transfer" `Quick
            test_host_holds_batches_until_transfer;
        ] );
    ]
