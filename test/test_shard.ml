(* Sharded scale-out tests.

   The seam has three load-bearing claims, each pinned here:

   - the deterministic key map and the open-loop population model are
     pure functions (determinism, bounds, balance, exact splits);
   - the 2PC-over-BFT engine is equivalent to a sequential oracle: under
     randomly interleaved schedules the committed writes land atomically,
     locks never leak, and accounting balances;
   - the deployment keeps consensus safety with byzantine attackers
     active in EVERY shard (the same nemesis schedule runs in the
     coordinator and the participant group of every cross-shard
     transaction), and at S = 1 it is bit-identical to the classic
     single-cluster run.

   Plus the structured-config redesign: the Spec axis table round-trips
   and validation catches bad shard shapes. *)

module Params = Rdb_core.Params
module Cluster = Rdb_core.Cluster
module Metrics = Rdb_core.Metrics
module Sim = Rdb_des.Sim
module Rng = Rdb_des.Rng
module Stats = Rdb_des.Stats
module Topology = Rdb_net.Topology
module Open_loop = Rdb_workload.Open_loop
module Stage_name = Rdb_obs.Stage_name
module Key_map = Rdb_shard.Key_map
module Two_pc = Rdb_shard.Two_pc
module Deployment = Rdb_shard.Deployment

let qtest p = QCheck_alcotest.to_alcotest p

(* ---- key map --------------------------------------------------------------- *)

let test_key_map_deterministic () =
  for key = -50 to 5_000 do
    let s = Key_map.shard_of_key ~shards:8 key in
    Alcotest.(check int) "same key, same shard" s (Key_map.shard_of_key ~shards:8 key);
    Alcotest.(check bool) "in range" true (s >= 0 && s < 8)
  done;
  Alcotest.(check int) "one shard is the identity" 0 (Key_map.shard_of_key ~shards:1 123);
  Alcotest.check_raises "no shards" (Invalid_argument "Key_map: shards must be >= 1")
    (fun () -> ignore (Key_map.shard_of_key ~shards:0 1))

let test_key_map_balanced () =
  let shards = 4 and records = 4096 in
  let total = ref 0 in
  for s = 0 to shards - 1 do
    let owned = Key_map.owned ~shards ~shard:s ~records in
    total := !total + owned;
    (* hashing spreads the keyspace: every shard within 25% of the even share *)
    let share = float_of_int owned /. (float_of_int records /. float_of_int shards) in
    if share < 0.75 || share > 1.25 then
      Alcotest.failf "shard %d owns %d of %d records (share %.2f)" s owned records share
  done;
  Alcotest.(check int) "every record owned exactly once" records !total

(* ---- open-loop population --------------------------------------------------- *)

let test_open_loop_split () =
  let pop = Open_loop.create ~population:1_000 ~shards:4 ~cross_fraction:0.0 () in
  Alcotest.(check (array int)) "uniform split is exact" [| 250; 250; 250; 250 |]
    (Open_loop.per_shard pop);
  let pop1 = Open_loop.create ~population:777 ~shards:1 ~cross_fraction:0.0 () in
  Alcotest.(check (array int)) "one shard gets everyone" [| 777 |] (Open_loop.per_shard pop1);
  let skewed = Open_loop.create ~affinity_theta:0.9 ~population:1_000 ~shards:4 ~cross_fraction:0.0 () in
  let per = Open_loop.per_shard skewed in
  Alcotest.(check int) "skewed split conserves the population" 1_000
    (Array.fold_left ( + ) 0 per);
  Alcotest.(check bool) "skew favors the low shards" true (per.(0) > per.(3))

let test_open_loop_is_cross () =
  (* one shard: never cross, and the draw must not consume the rng (that
     would perturb the bit-identical S = 1 replay) *)
  let pop1 = Open_loop.create ~population:10 ~shards:1 ~cross_fraction:0.0 () in
  let a = Rng.create 42L and b = Rng.create 42L in
  Alcotest.(check bool) "never cross with one shard" false (Open_loop.is_cross pop1 a);
  Alcotest.(check int) "rng untouched" (Rng.int b 1_000_000) (Rng.int a 1_000_000);
  let pop = Open_loop.create ~population:10 ~shards:4 ~cross_fraction:0.25 () in
  let rng = Rng.create 7L in
  let hits = ref 0 in
  for _ = 1 to 10_000 do
    if Open_loop.is_cross pop rng then incr hits
  done;
  Alcotest.(check bool) "cross fraction respected"
    true
    (abs (!hits - 2_500) < 250);
  let prng = Rng.create 9L in
  for _ = 1 to 1_000 do
    let home = Rng.int prng 4 in
    let part = Open_loop.pick_participant pop prng ~home in
    if part = home || part < 0 || part >= 4 then
      Alcotest.failf "participant %d invalid for home %d" part home
  done

(* ---- stage qualification ---------------------------------------------------- *)

let test_stage_qualify () =
  Alcotest.(check string) "qualify" "s2/worker-3" (Stage_name.qualify ~shard:2 "worker-3");
  Alcotest.(check (option int)) "shard_of" (Some 2) (Stage_name.shard_of "s2/worker-3");
  Alcotest.(check (option int)) "unqualified has no shard" None (Stage_name.shard_of "worker-3");
  Alcotest.(check string) "unqualify round-trips" "worker-3"
    (Stage_name.unqualified (Stage_name.qualify ~shard:11 "worker-3"));
  Alcotest.(check string) "unqualified passes through" "execute-1"
    (Stage_name.unqualified "execute-1")

(* ---- topology ---------------------------------------------------------------- *)

let test_topology () =
  let flat = Topology.flat ~shards:4 in
  Alcotest.(check int) "flat latency" 0 (Topology.shard_latency flat 0 3);
  Alcotest.(check int) "flat lookahead" 0 (Topology.min_inter_shard_latency flat);
  let ring = Topology.ring ~regions:3 ~shards:6 () in
  Alcotest.(check int) "round-robin placement" 1 (Topology.shard_region ring 4);
  Alcotest.(check int) "same region, free" 0 (Topology.shard_latency ring 0 3);
  Alcotest.(check bool) "different regions pay propagation" true
    (Topology.shard_latency ring 0 1 > 0);
  Alcotest.(check bool) "lookahead positive" true (Topology.min_inter_shard_latency ring > 0);
  Alcotest.(check bool) "lookahead is the minimum" true
    (Topology.min_inter_shard_latency ring <= Topology.shard_latency ring 0 1)

(* ---- 2PC engine: units ------------------------------------------------------- *)

let test_two_pc_commit () =
  let t = Two_pc.create () in
  Two_pc.start t ~id:1 ~coordinator:0 ~participant:1 ~keys:[| (0, 5); (1, 9) |];
  Alcotest.(check (option int)) "coordinator key locked" (Some 1)
    (Two_pc.locked_by t ~shard:0 ~record:5);
  Alcotest.(check (option int)) "participant key not yet locked" None
    (Two_pc.locked_by t ~shard:1 ~record:9);
  Alcotest.(check bool) "vote commits" true (Two_pc.vote t ~id:1 = Two_pc.Commit);
  Alcotest.(check (option int)) "participant key locked after vote" (Some 1)
    (Two_pc.locked_by t ~shard:1 ~record:9);
  Alcotest.(check bool) "decision commits" true (Two_pc.decide t ~id:1 = Two_pc.Commit);
  Alcotest.(check (option int)) "locks released" None (Two_pc.locked_by t ~shard:0 ~record:5);
  let s = Two_pc.stats t in
  Alcotest.(check int) "committed" 1 s.Two_pc.committed;
  Alcotest.(check int) "nothing in flight" 0 s.Two_pc.in_flight

let test_two_pc_conflict_aborts () =
  let t = Two_pc.create () in
  Two_pc.start t ~id:1 ~coordinator:0 ~participant:1 ~keys:[| (0, 5); (1, 9) |];
  (* id 2 wants id 1's coordinator-side record *)
  Two_pc.start t ~id:2 ~coordinator:0 ~participant:2 ~keys:[| (0, 5); (2, 3) |];
  Alcotest.(check bool) "conflicting txn aborts" true (Two_pc.vote t ~id:2 = Two_pc.Abort);
  Alcotest.(check (option int)) "loser holds nothing" (Some 1)
    (Two_pc.locked_by t ~shard:0 ~record:5);
  Alcotest.(check bool) "winner still commits" true (Two_pc.vote t ~id:1 = Two_pc.Commit);
  Alcotest.(check bool) "winner decides commit" true (Two_pc.decide t ~id:1 = Two_pc.Commit);
  Alcotest.(check bool) "loser decides abort" true (Two_pc.decide t ~id:2 = Two_pc.Abort);
  let s = Two_pc.stats t in
  Alcotest.(check int) "one commit" 1 s.Two_pc.committed;
  Alcotest.(check int) "one abort" 1 s.Two_pc.aborted;
  Alcotest.(check bool) "conflict counted" true (s.Two_pc.lock_conflicts >= 1)

let test_two_pc_validates () =
  let t = Two_pc.create () in
  Alcotest.check_raises "coordinator = participant"
    (Invalid_argument "Two_pc: coordinator and participant must differ") (fun () ->
      Two_pc.start t ~id:1 ~coordinator:0 ~participant:0 ~keys:[||]);
  Alcotest.check_raises "foreign key"
    (Invalid_argument "Two_pc: key on a shard outside the transaction's footprint") (fun () ->
      Two_pc.start t ~id:1 ~coordinator:0 ~participant:1 ~keys:[| (2, 0) |]);
  Two_pc.start t ~id:1 ~coordinator:0 ~participant:1 ~keys:[| (0, 1) |];
  Alcotest.check_raises "duplicate id" (Invalid_argument "Two_pc: duplicate transaction 1")
    (fun () -> Two_pc.start t ~id:1 ~coordinator:0 ~participant:1 ~keys:[||])

(* ---- 2PC engine: sequential-oracle equivalence ------------------------------- *)

(* Random interleavings of cross-shard transactions over a tiny keyspace.
   Committed transactions apply their writes both to per-shard stores and
   to one flat oracle store, in decide order; equivalence plus the lock
   invariants make 2PC atomic and serializable:

   - at the moment a transaction is decided Commit it holds every one of
     its keys (so no committed write ever raced another);
   - after the schedule drains, no lock is held and the per-shard stores
     merged equal the oracle exactly;
   - started = committed + aborted, nothing in flight. *)
let prop_two_pc_oracle =
  QCheck.Test.make ~name:"2pc: interleaved schedules match the sequential oracle" ~count:200
    QCheck.(int_bound 100_000)
    (fun seed ->
      let shards = 3 and records = 6 in
      let rng = Rng.create (Int64.of_int (seed + 7)) in
      let t = Two_pc.create () in
      let sharded = Array.init shards (fun _ -> Hashtbl.create 16) in
      let oracle = Hashtbl.create 16 in
      let in_flight = ref [] in
      let next_id = ref 0 in
      let keys_of ~coordinator ~participant =
        let side shard =
          List.init (1 + Rng.int rng 2) (fun _ -> (shard, Rng.int rng records))
        in
        Array.of_list (side coordinator @ side participant)
      in
      let footprints = Hashtbl.create 16 in
      let start () =
        let id = !next_id in
        incr next_id;
        let coordinator = Rng.int rng shards in
        let participant = Open_loop.pick_participant
            (Open_loop.create ~population:1 ~shards ~cross_fraction:0.5 ())
            rng ~home:coordinator
        in
        let keys = keys_of ~coordinator ~participant in
        Hashtbl.replace footprints id keys;
        Two_pc.start t ~id ~coordinator ~participant ~keys;
        in_flight := (id, `Started) :: !in_flight
      in
      let advance (id, stage) =
        match stage with
        | `Started ->
          ignore (Two_pc.vote t ~id);
          in_flight := (id, `Voted) :: List.remove_assoc id !in_flight
        | `Voted ->
          let keys = Hashtbl.find footprints id in
          (if Two_pc.decision_of t ~id = Two_pc.Commit then
             Array.iter
               (fun (s, r) ->
                 (* atomicity: a committing txn owns every key it writes *)
                 if Two_pc.locked_by t ~shard:s ~record:r <> Some id then
                   QCheck.Test.fail_reportf "txn %d commits without holding (%d,%d)" id s r)
               keys);
          (match Two_pc.decide t ~id with
          | Two_pc.Commit ->
            Array.iter (fun (s, r) -> Hashtbl.replace sharded.(s) r id) keys;
            Array.iter (fun (s, r) -> Hashtbl.replace oracle (s, r) id) keys
          | Two_pc.Abort -> ());
          in_flight := List.remove_assoc id !in_flight
      in
      for _ = 1 to 120 do
        match !in_flight with
        | [] -> start ()
        | _ when Rng.int rng 3 = 0 -> start ()
        | l ->
          let picked = List.nth l (Rng.int rng (List.length l)) in
          advance (fst picked, List.assoc (fst picked) l)
      done;
      (* drain: everything in flight votes then decides *)
      while !in_flight <> [] do
        let l = List.sort compare !in_flight in
        advance (List.hd l)
      done;
      for s = 0 to shards - 1 do
        for r = 0 to records - 1 do
          if Two_pc.locked_by t ~shard:s ~record:r <> None then
            QCheck.Test.fail_reportf "lock leaked on (%d,%d)" s r;
          let shard_v = Hashtbl.find_opt sharded.(s) r in
          let oracle_v = Hashtbl.find_opt oracle (s, r) in
          if shard_v <> oracle_v then
            QCheck.Test.fail_reportf "divergence at (%d,%d)" s r
        done
      done;
      let st = Two_pc.stats t in
      st.Two_pc.started = st.Two_pc.committed + st.Two_pc.aborted
      && st.Two_pc.in_flight = 0)

(* ---- deployment -------------------------------------------------------------- *)

let tiny =
  Params.default
  |> Params.with_n 4
  |> Params.with_clients 400
  |> Params.map_topology (fun t -> { t with Params.Topology.client_machines = 1 })
  |> Params.with_batch_size 20
  |> Params.map_consensus (fun c ->
         { c with Params.Consensus.max_inflight_batches = 16; checkpoint_txns = 400 })
  |> Params.with_client_timeout (Sim.ms 40.0)
  |> Params.with_view_timeout (Sim.ms 30.0)
  |> Params.with_windows ~warmup:(Sim.seconds 0.1) ~measure:(Sim.seconds 0.4)

let test_s1_bit_identical () =
  let d = Deployment.run tiny in
  let m = Cluster.run tiny in
  let a = d.Deployment.aggregate in
  Alcotest.(check int) "one shard" 1 d.Deployment.shards;
  Alcotest.(check int) "no cross-shard txns" 0 d.Deployment.cross.Two_pc.started;
  Alcotest.(check int) "completed" m.Metrics.completed_txns a.Metrics.completed_txns;
  Alcotest.(check (float 0.0)) "throughput" m.Metrics.throughput_tps a.Metrics.throughput_tps;
  Alcotest.(check int) "messages" m.Metrics.messages_sent a.Metrics.messages_sent;
  Alcotest.(check int) "bytes" m.Metrics.bytes_sent a.Metrics.bytes_sent;
  Alcotest.(check int) "blocks" m.Metrics.ledger_blocks a.Metrics.ledger_blocks;
  Alcotest.(check int) "latency samples"
    (Stats.count m.Metrics.latency)
    (Stats.count a.Metrics.latency);
  Alcotest.(check (float 0.0)) "p99"
    (Stats.percentile m.Metrics.latency 99.0)
    (Stats.percentile a.Metrics.latency 99.0)

let test_cross_shard_progress () =
  let p = tiny |> Params.with_shards 2 |> Params.with_cross_shard_fraction 0.2 in
  let r = Deployment.run p in
  Alcotest.(check bool) "safe" true (r.Deployment.safety = Ok ());
  Alcotest.(check int) "two shards reported" 2 (Array.length r.Deployment.per_shard);
  Alcotest.(check bool) "throughput positive" true
    (r.Deployment.aggregate.Metrics.throughput_tps > 1000.0);
  let c = r.Deployment.cross in
  Alcotest.(check bool) "cross-shard txns committed" true (c.Two_pc.committed > 0);
  Alcotest.(check int) "accounting balances" c.Two_pc.started
    (c.Two_pc.committed + c.Two_pc.aborted + c.Two_pc.in_flight);
  (* shard-qualified observability: the aggregate names each shard's stages *)
  let qualified =
    List.exists
      (fun (rr : Metrics.replica_report) ->
        List.exists
          (fun (st : Metrics.stage_saturation) -> Stage_name.shard_of st.Metrics.stage <> None)
          rr.Metrics.stages)
      r.Deployment.aggregate.Metrics.replicas
  in
  Alcotest.(check bool) "stages carry shard prefixes" true qualified

let test_regions_topology_run () =
  let topo = Topology.ring ~regions:2 ~shards:2 () in
  let p =
    tiny
    |> Params.with_shards 2
    |> Params.with_cross_shard_fraction 0.1
    |> Params.map_topology (fun t -> { t with Params.Topology.regions = Some topo })
  in
  let r = Deployment.run p in
  Alcotest.(check bool) "safe across regions" true (r.Deployment.safety = Ok ());
  Alcotest.(check bool) "commits across regions" true (r.Deployment.cross.Two_pc.committed > 0)

(* Byzantine attackers in every shard: the same nemesis schedule runs in
   both groups, so every cross-shard transaction has a liar in its
   coordinator shard AND its participant shard. *)
let prop_sharded_byzantine_safety =
  QCheck.Test.make ~name:"sharded safety: byzantine attackers in every shard" ~count:200
    (QCheck.pair Testkit.arb_byzantine_schedule (QCheck.int_bound 10_000))
    (fun (nemesis, seed) ->
      let p =
        tiny
        |> Params.with_clients 100
        |> Params.with_batch_size 10
        |> Params.with_shards 2
        |> Params.with_cross_shard_fraction 0.3
        |> Params.with_client_timeout (Sim.ms 30.0)
        |> Params.with_view_timeout (Sim.ms 25.0)
        |> Params.with_windows ~warmup:(Sim.seconds 0.1) ~measure:(Sim.seconds 0.4)
        |> Params.with_nemesis nemesis
        |> Params.with_seed (Int64.of_int (seed + 17))
      in
      let r = Deployment.run p in
      (match r.Deployment.safety with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_report e);
      let c = r.Deployment.cross in
      c.Two_pc.started = c.Two_pc.committed + c.Two_pc.aborted + c.Two_pc.in_flight)

(* ---- structured-config redesign ---------------------------------------------- *)

let test_spec_round_trip () =
  (* every axis entry must round-trip set -> get on its own spelling *)
  match
    Params.Spec.apply
      [ ("shards", "4"); ("cross_shard", "0.25"); ("clients", "1234"); ("protocol", "hotstuff") ]
      Params.default
  with
  | Error e -> Alcotest.failf "spec apply failed: %s" e
  | Ok p ->
    Alcotest.(check int) "shards set" 4 p.Params.shards;
    Alcotest.(check (float 1e-9)) "cross fraction set" 0.25 p.Params.cross_shard_fraction;
    Alcotest.(check int) "clients set" 1234 p.Params.clients;
    let get k =
      match Params.Spec.find k with
      | Some e -> e.Params.Spec.get p
      | None -> Alcotest.failf "axis %s missing from spec" k
    in
    Alcotest.(check string) "shards reads back" "4" (get "shards");
    Alcotest.(check string) "cross_shard reads back" "0.25" (get "cross_shard");
    Alcotest.(check string) "protocol reads back" "hotstuff" (get "protocol");
    (match Params.Spec.apply [ ("no_such_axis", "1") ] Params.default with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "unknown axis accepted")

let test_validate_shard_shapes () =
  Alcotest.check_raises "zero shards" (Invalid_argument "Params: shards must be >= 1")
    (fun () -> Params.validate (Params.with_shards 0 tiny));
  Alcotest.check_raises "too many shards" (Invalid_argument "Params: shards must be <= 64")
    (fun () -> Params.validate (Params.with_shards 65 tiny));
  Alcotest.check_raises "cross fraction out of range"
    (Invalid_argument "Params: cross_shard_fraction must be in [0, 1]") (fun () ->
      Params.validate (Params.with_cross_shard_fraction 1.5 (Params.with_shards 2 tiny)));
  Alcotest.check_raises "cross-shard traffic needs shards"
    (Invalid_argument "Params: cross_shard_fraction needs shards >= 2") (fun () ->
      Params.validate (Params.with_cross_shard_fraction 0.1 tiny));
  Alcotest.check_raises "topology too small"
    (Invalid_argument "Params: regions topology places fewer shards than configured")
    (fun () ->
      Params.validate
        (tiny
        |> Params.with_shards 4
        |> Params.map_topology (fun t ->
               { t with Params.Topology.regions = Some (Topology.flat ~shards:2) })))

let () =
  Alcotest.run "shard"
    [
      ( "key-map",
        [
          Alcotest.test_case "deterministic and total" `Quick test_key_map_deterministic;
          Alcotest.test_case "balanced over the keyspace" `Quick test_key_map_balanced;
        ] );
      ( "population",
        [
          Alcotest.test_case "apportionment" `Quick test_open_loop_split;
          Alcotest.test_case "cross-shard draws" `Quick test_open_loop_is_cross;
        ] );
      ( "observability",
        [ Alcotest.test_case "stage shard qualification" `Quick test_stage_qualify ] );
      ( "topology",
        [ Alcotest.test_case "placement, latency, lookahead" `Quick test_topology ] );
      ( "two-pc",
        [
          Alcotest.test_case "commit path" `Quick test_two_pc_commit;
          Alcotest.test_case "conflict aborts" `Quick test_two_pc_conflict_aborts;
          Alcotest.test_case "validation" `Quick test_two_pc_validates;
          qtest prop_two_pc_oracle;
        ] );
      ( "deployment",
        [
          Alcotest.test_case "S=1 bit-identical to the classic cluster" `Quick
            test_s1_bit_identical;
          Alcotest.test_case "cross-shard commits make progress" `Quick
            test_cross_shard_progress;
          Alcotest.test_case "regions topology" `Quick test_regions_topology_run;
          qtest prop_sharded_byzantine_safety;
        ] );
      ( "config",
        [
          Alcotest.test_case "spec axis table round-trips" `Quick test_spec_round_trip;
          Alcotest.test_case "shard shapes validated" `Quick test_validate_shard_shapes;
        ] );
    ]
