(* perfbench: the program-cost benchmark.

   It times this repository's code from outside, through public entry
   points only, on four seeded closed-loop workloads:

   - sim-default   the resdb_sim default configuration under Cluster/Sim;
   - local-sign    Local_runtime, n=4, batch 100, SETs over 64 hot keys
                   (not in BENCHMARK.json: local-state and tcp-loopback
                   cover its layers);
   - local-state   Local_runtime, n=4, batch 10, every SET a fresh key;
   - tcp-loopback  four resdb_node processes on 127.0.0.1, batch 100,
                   driven by this program's own signing client.

   A run repeats the same work in short passes, or cuts one long pass
   into windows, and reports the figures of its fastest stretches (see
   best_segments): the host's speed swings too much for a mean to be
   steady.  With --trace 0 a run reports the end-to-end metrics; with
   --trace 1 it makes an untraced pass, then traced passes that record
   spans around the calls into each layer, and reports the per-layer
   metrics.  The last
   line of standard output is one JSON object.  See README.md. *)

module Params = Rdb_core.Params
module Cluster = Rdb_core.Cluster
module Metrics = Rdb_core.Metrics
module Rt = Rdb_core.Local_runtime
module Wire = Rdb_core.Wire
module Sim = Rdb_des.Sim
module Rng = Rdb_des.Rng
module Msg = Rdb_consensus.Message
module Tcp = Rdb_net.Tcp_transport
module Signer = Rdb_crypto.Signer
module Cmac = Rdb_crypto.Cmac
module Sha256 = Rdb_crypto.Sha256
module Mem_store = Rdb_storage.Mem_store
module Ledger = Rdb_chain.Ledger
module Block = Rdb_chain.Block

let now = Unix.gettimeofday

(* ---- small utilities ------------------------------------------------------- *)

(* Growable float array, indexed by transaction id. *)
module Fvec = struct
  type t = { mutable a : float array; mutable len : int }

  let create () = { a = Array.make 1024 0.0; len = 0 }

  let set v i x =
    if i >= Array.length v.a then begin
      let b = Array.make (max (i + 1) (2 * Array.length v.a)) 0.0 in
      Array.blit v.a 0 b 0 v.len;
      v.a <- b
    end;
    v.a.(i) <- x;
    if i >= v.len then v.len <- i + 1

  let get v i = if i < v.len then v.a.(i) else 0.0
end

(* Latencies in ms of every transaction with both a submit and an accept
   time, sorted. *)
let latencies ~submit ~accept n =
  let l = ref [] in
  for i = 0 to n - 1 do
    let s = Fvec.get submit i and a = Fvec.get accept i in
    if s > 0.0 && a > 0.0 then l := ((a -. s) *. 1e3) :: !l
  done;
  let arr = Array.of_list !l in
  Array.sort compare arr;
  arr

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile of a sorted array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1)))

(* Peak resident set (VmHWM) of a process, in MB. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
    let v = ref 0.0 in
    (try
       while true do
         let line = input_line ic in
         if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
           Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
               v := float_of_int kb /. 1024.0)
       done
     with End_of_file -> ());
    close_in ic;
    !v

(* Mean wall time of [f i] over [n] calls, in seconds. *)
let time_per_call n f =
  let t0 = now () in
  for i = 0 to n - 1 do
    f i
  done;
  (now () -. t0) /. float_of_int (max 1 n)

let kv_apply store payload =
  match String.split_on_char ' ' payload with
  | [ "SET"; k; v ] ->
    Mem_store.put store k v;
    "OK"
  | _ -> "ERR"

(* The state a correct system must end in: the payloads applied in
   submission order to one store. *)
let replay payloads n =
  let st = Mem_store.create () in
  for i = 0 to n - 1 do
    ignore (kv_apply st payloads.(i))
  done;
  st

(* [k] set-up time samples of one call of [f]: a single call takes well
   under a millisecond, close to the clock's microsecond resolution, so
   each sample is the time per call of a round of ten. *)
let setup_samples k f =
  List.init k (fun _ ->
      let t0 = now () in
      for _ = 1 to 10 do
        f ()
      done;
      (now () -. t0) /. 10.0)

(* ---- results ---------------------------------------------------------------- *)

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
}

let print_outcome o =
  let num v =
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
    else if Float.is_finite v then Printf.sprintf "%.17g" v
    else "0"
  in
  List.iter (fun (k, v, u) -> Printf.printf "  %-28s %s %s\n" k (num v) u) o.metrics;
  let ms =
    List.map (fun (k, v, u) -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" k (num v) u) o.metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" o.correct
    o.attempted o.failed (String.concat ", " ms)

(* One stretch of a pass, the unit the best-of estimate works on: a
   batch of a Local_runtime pass, a slice of simulated time. *)
type seg = {
  dur : float;  (** wall seconds *)
  txns : int;  (** transactions accepted in it *)
  seg_lat : float array;  (** their commit latencies, ms *)
  measured : bool;  (** inside the measured window, so counted by commit_tps *)
}

(* What every workload's untraced pass yields. *)
type e2e = {
  attempted_txns : int;
  accepted : int;  (** accepted by their client by the end of the pass *)
  failed_txns : int;  (** unaccepted, or all of them when a check failed *)
  check : (unit, string) result;
  window_txns : int;  (** accepted within the measured window *)
  window_s : float;  (** wall seconds of the measured window *)
  lat : float array;  (** sorted commit latencies, ms *)
  rss_mb : float;
  wall : float;  (** wall seconds of the whole pass, drain included *)
  segs : seg array;  (** the pass in order; passes of the same work have the same segments *)
}

(* commit_tps and sim_txn_per_s *)
let commit_tps e = float_of_int e.window_txns /. e.window_s

let completed_per_s e = float_of_int e.accepted /. e.wall

(* Several passes of one workload as one result: counts and times add
   up, latency samples are pooled. *)
let merge es =
  let sum f = List.fold_left (fun acc e -> acc + f e) 0 es in
  let sumf f = List.fold_left (fun acc e -> acc +. f e) 0.0 es in
  let lat = Array.concat (List.map (fun e -> e.lat) es) in
  Array.sort compare lat;
  {
    attempted_txns = sum (fun e -> e.attempted_txns);
    accepted = sum (fun e -> e.accepted);
    failed_txns = sum (fun e -> e.failed_txns);
    check = List.fold_left (fun acc e -> match acc with Error _ -> acc | Ok () -> e.check) (Ok ()) es;
    window_txns = sum (fun e -> e.window_txns);
    window_s = sumf (fun e -> e.window_s);
    lat;
    rss_mb = List.fold_left (fun acc e -> Float.max acc e.rss_mb) 0.0 es;
    wall = sumf (fun e -> e.wall);
    segs = Array.concat (List.map (fun e -> e.segs) es);
  }

(* Whole passes of [pass], one after another, as many as fit in
   [seconds] when each takes as long as the one before, and at least
   [min_passes] of them.  After every pass it takes [rounds] set-up
   samples of [setup], so that they spread over the run like the passes;
   setup_s is their median.  None is taken before the first pass: the
   first creates of a process run on a cold, still growing heap and take
   up to seven times as long.  Returns the passes and setup_s. *)
let timed_passes ~seconds ~min_passes ~rounds ~setup pass =
  let t_end = now () +. float_of_int seconds in
  let rec go acc samples k =
    let t0 = now () in
    let acc = pass () :: acc in
    let t1 = now () in
    (* what the pass left on the heap is not the set-up's to collect *)
    Gc.compact ();
    let samples = setup_samples rounds setup @ samples in
    if k + 1 < min_passes || t1 +. (t1 -. t0) <= t_end then go acc samples (k + 1)
    else (List.rev acc, median samples)
  in
  go [] [] 0

(* The fastest instance of each segment over passes of the same work:
   segment j of the result is segment j of whichever pass ran it in the
   least wall time.

   On a 2-vCPU share of a cloud host, the vCPUs' speed swings by up to
   1.6x over tens of seconds as the host's other tenants come and go, and
   a slowdown only ever makes a segment
   slower.  Every pass does the same work, segment by segment, so the
   fastest instance of each is what the code itself costs: a change to
   the program moves every instance, a slow spell of the host only some.
   Taken over segments of a fraction of a second, this is far steadier
   from run to run than the mean, which carries whatever share of the run
   the host was slow for. *)
let best_segments es =
  let k = List.fold_left (fun k e -> min k (Array.length e.segs)) max_int es in
  Array.init k (fun j ->
      let faster b e = if e.segs.(j).dur < b.dur then e.segs.(j) else b in
      List.fold_left faster (List.hd es).segs.(j) es)

(* The rates and latencies a run reports. *)
type figures = {
  tps : float;
  all_per_s : float;
  p50 : float;
  p99 : float;
  lat_samples : string;  (** what the latency percentiles are taken over *)
}

(* Over passes of the same work: the fastest instance of each segment.
   commit_tps counts the measured segments, sim_txn_per_s all of them. *)
let best_instance es =
  let best = Array.to_list (best_segments es) in
  let rate segs =
    let n = List.fold_left (fun a s -> a + s.txns) 0 segs in
    float_of_int n /. List.fold_left (fun a s -> a +. s.dur) 0.0 segs
  in
  let lat = Array.concat (List.map (fun s -> s.seg_lat) best) in
  Array.sort compare lat;
  {
    tps = rate (List.filter (fun s -> s.measured) best);
    all_per_s = rate best;
    p50 = percentile lat 50.0;
    p99 = percentile lat 99.0;
    lat_samples = Printf.sprintf "%d samples" (Array.length lat);
  }

(* Over one pass cut into windows of a steady load, each different work:
   the upper quartile of the windows' rates and the lower quartile of
   their latency percentiles.  A slow spell of the host that covers less
   than three quarters of the run leaves these where they were. *)
let window_quartiles e =
  let q p f =
    let a = Array.map f e.segs in
    Array.sort compare a;
    percentile a p
  in
  let tps = q 75.0 (fun s -> float_of_int s.txns /. s.dur) in
  {
    tps;
    all_per_s = tps;
    p50 = q 25.0 (fun s -> percentile s.seg_lat 50.0);
    p99 = q 25.0 (fun s -> percentile s.seg_lat 99.0);
    lat_samples =
      Printf.sprintf "%d windows of at least %d samples" (Array.length e.segs)
        (Array.fold_left (fun a s -> min a (Array.length s.seg_lat)) max_int e.segs);
  }

(* The end-to-end metrics of a run: rates and latencies from [fig],
   counts over all passes. *)
let e2e_metrics e fig ~setup_s =
  Printf.printf "commit latency percentiles over %s\n" fig.lat_samples;
  [
    ("commit_tps", fig.tps, "1/s");
    ("commit_p50_ms", fig.p50, "ms");
    ("commit_p99_ms", fig.p99, "ms");
    ( "accepted_frac",
      float_of_int (e.attempted_txns - e.failed_txns) /. float_of_int (max 1 e.attempted_txns),
      "fraction" );
    ("sim_txn_per_s", fig.all_per_s, "1/s");
    ("setup_s", setup_s, "s");
    ("rss_peak_mb", e.rss_mb, "MB");
  ]

let report_check name e =
  Printf.printf "%s: %d attempted, %d accepted, %d failed, %d latency samples, check %s\n" name
    e.attempted_txns e.accepted e.failed_txns (Array.length e.lat)
    (match e.check with Ok () -> "ok" | Error m -> "FAILED: " ^ m)

(* The per-layer metric names, in BENCHMARK.json order; a layer that does
   no work in a workload reports 0. *)
let per_layer_names =
  [
    ("des.events", "count"); ("des.events_per_txn", "count"); ("des.ns_per_event", "ns");
    ("des.alloc_words_per_txn", "words"); ("des.major_gcs", "count");
    ("rt.submit_us", "us"); ("rt.batch_admit_ms", "ms"); ("rt.run_ms_per_batch", "ms");
    ("rt.submit_share", "fraction"); ("rt.run_share", "fraction");
    ("crypto.sign_us", "us"); ("crypto.verify_us", "us"); ("crypto.cmac_us", "us");
    ("crypto.sha256_ns_per_byte", "ns/B"); ("crypto.sign_verify_share", "fraction");
    ("crypto.verify_cache_hits", "count");
    ("consensus.msgs_per_batch", "count"); ("consensus.msgs_per_txn", "count");
    ("consensus.cmac_share", "fraction");
    ("storage.state_digest_us", "us"); ("storage.state_digest_calls", "count");
    ("storage.state_digest_share", "fraction");
    ("chain.append_us", "us"); ("chain.blocks_per_txn", "count");
    ("codec.encode_us", "us"); ("codec.decode_us", "us"); ("net.send_us", "us");
    ("net.replies_per_txn", "count"); ("net.send_failures", "count");
    ("workload.gen_busy_frac", "fraction"); ("workload.window_full_frac", "fraction");
    ("trace.overhead_per_s", "1/s");
  ]

let layer_metrics values =
  List.map
    (fun (k, u) -> (k, Option.value ~default:0.0 (List.assoc_opt k values), u))
    per_layer_names

(* The exact counts must repeat across two passes with the same seed. *)
let check_exact a b =
  List.filter_map
    (fun ((k, x), (_, y)) -> if x = y then None else Some (Printf.sprintf "%s: %.17g vs %.17g" k x y))
    (List.combine a b)

let write_spans spans ~out_dir ~workload ~seed ~wall =
  let path = Filename.concat out_dir (Printf.sprintf "trace-%s-%d.json" workload seed) in
  Spans.write spans path;
  Printf.printf "spans: %d written to %s; self time by layer (share of %.3f s traced wall):\n"
    (Spans.count spans) path wall;
  List.iter
    (fun (l, s) -> Printf.printf "  %-10s %8.3f s  %5.1f%%\n" l s (100.0 *. s /. wall))
    (Spans.self_by_layer spans)

(* ---- sim-default: the DES ------------------------------------------------ *)

(* The resdb_sim default configuration.  Its seed is part of the
   workload: the check values below hold for it. *)
let sim_params = Params.default

let sim_expect_tps = 177_000.0
let sim_expect_msgs = 883_688
let sim_expect_blocks = 1_770

type sim_pass = {
  sp_e2e : e2e;
  events : int;
  alloc_words : float;
  major_gcs : int;
}

(* Words allocated on the minor heap.  Gc.minor_words is exact;
   Gc.counters and Gc.quick_stat only catch up at collections. *)
let gc_words = Gc.minor_words

(* What setup_s times for the simulator. *)
let sim_setup () =
  let c = Cluster.create sim_params in
  Cluster.start c;
  c

(* Drive a created and started cluster through the warmup and measurement
   windows exactly as [Cluster.measure] does, counting events.  A
   completion sink resubmits each completed transaction, which is the
   classic closed loop bit for bit, and stamps wall times on the way:
   a transaction's wall latency is how long the simulator took to carry
   it from submission to client acceptance. *)
let sim_slices = 30

let sim_pass ?spans c =
  let submit = Fvec.create () and accept = Fvec.create () in
  (* commit latencies of the current slice *)
  let slice_lat = ref [] in
  Cluster.set_completion_sink c (fun fresh ->
      let t = Unix.gettimeofday () in
      Array.iter
        (fun id ->
          Fvec.set accept id t;
          let s = Fvec.get submit id in
          if s > 0.0 then slice_lat := ((t -. s) *. 1e3) :: !slice_lat)
        fresh;
      let first = Cluster.next_txn c in
      Cluster.submit_fresh c (Array.length fresh);
      for id = first to Cluster.next_txn c - 1 do
        Fvec.set submit id t
      done);
  let p = Cluster.params c in
  let span name f = match spans with Some s -> Spans.with_span s name f | None -> f () in
  (* Warmup and measurement each run in [sim_slices] equal slices of
     simulated time, each a segment. *)
  let horizon = p.Params.warmup + p.Params.measure in
  let segs = ref [] in
  let run_to limit =
    let t0 = now () in
    let n = ref 0 in
    let from = Sim.now (Cluster.sim c) in
    for k = 1 to sim_slices do
      let until = from + ((limit - from) * k / sim_slices) in
      let ts = now () and done0 = Cluster.total_completed c in
      slice_lat := [];
      (n :=
         !n
         + span "des.run_bounded" (fun () ->
               match Sim.run_bounded ~until ~max_events:max_int (Cluster.sim c) with
               | `Completed n -> n
               | `Exhausted -> failwith "sim: event budget exhausted"));
      segs :=
        {
          dur = now () -. ts;
          txns = Cluster.total_completed c - done0;
          seg_lat = Array.of_list !slice_lat;
          measured = limit = horizon;
        }
        :: !segs
    done;
    (!n, now () -. t0)
  in
  (* Every pass starts from a compacted heap. *)
  Gc.compact ();
  let g0 = gc_words () and maj0 = (Gc.quick_stat ()).Gc.major_collections in
  let n1, w1 = run_to p.Params.warmup in
  let s0 = Cluster.snapshot c in
  Cluster.set_measuring c true;
  let n2, w2 = run_to horizon in
  Cluster.set_measuring c false;
  let s1 = Cluster.snapshot c in
  let alloc = gc_words () -. g0 and majors = (Gc.quick_stat ()).Gc.major_collections - maj0 in
  let m = span "des.metrics_between" (fun () -> Cluster.metrics_between c s0 s1) in
  (* A simulated transaction still in flight at the horizon is neither
     accepted nor failed: the unit of work is the transactions completed. *)
  let total = Cluster.total_completed c in
  let check =
    if m.Metrics.throughput_tps <> sim_expect_tps then
      Error (Printf.sprintf "throughput %.0f, expected %.0f" m.Metrics.throughput_tps sim_expect_tps)
    else if m.Metrics.messages_sent <> sim_expect_msgs then
      Error (Printf.sprintf "%d msgs, expected %d" m.Metrics.messages_sent sim_expect_msgs)
    else if m.Metrics.ledger_blocks <> sim_expect_blocks then
      Error (Printf.sprintf "%d blocks, expected %d" m.Metrics.ledger_blocks sim_expect_blocks)
    else Cluster.check_safety c
  in
  Cluster.close c;
  let e2e =
    {
      attempted_txns = total;
      accepted = total;
      failed_txns = (match check with Ok () -> 0 | Error _ -> total);
      check;
      window_txns = m.Metrics.completed_txns;
      window_s = w2;
      lat = latencies ~submit ~accept (Cluster.next_txn c);
      rss_mb = vm_hwm_mb "self";
      wall = w1 +. w2;
      segs = Array.of_list (List.rev !segs);
    }
  in
  { sp_e2e = e2e; events = n1 + n2; alloc_words = alloc; major_gcs = majors }

let run_sim ~seconds ~trace ~out_dir ~seed =
  if not trace then begin
    let setup () = Cluster.close (sim_setup ()) in
    (* Whole simulations of about 12 s each, as many as fit in --seconds
       at that speed and at least two.  The count follows --seconds only,
       so that every run holds the same peak of memory; each starts from
       a compacted heap. *)
    let es, setup_s =
      timed_passes ~seconds:0 ~min_passes:(max 2 (seconds / 12)) ~rounds:6 ~setup (fun () ->
          Gc.compact ();
          (sim_pass (sim_setup ())).sp_e2e)
    in
    let e = merge es in
    report_check "sim-default" e;
    Printf.printf "%d simulations\n" (List.length es);
    {
      correct = e.check = Ok ();
      attempted = e.attempted_txns;
      failed = e.failed_txns;
      metrics = e2e_metrics e (best_instance es) ~setup_s;
    }
  end
  else begin
    let untraced = sim_pass (sim_setup ()) in
    let traced () =
      let spans = Spans.create () in
      let c = Spans.with_span spans "des.cluster_setup" sim_setup in
      let p = sim_pass ~spans c in
      (p, spans)
    in
    let b, spans = traced () in
    let c', _ = traced () in
    let exact p =
      [
        ("des.events", float_of_int p.events);
        ("des.alloc_words_per_txn", p.alloc_words /. float_of_int p.sp_e2e.accepted);
      ]
    in
    let mismatches = check_exact (exact b) (exact c') in
    List.iter (fun m -> Printf.eprintf "exact count did not repeat: %s\n" m) mismatches;
    let wall = b.sp_e2e.wall in
    write_spans spans ~out_dir ~workload:"sim-default" ~seed ~wall;
    let txns = float_of_int b.sp_e2e.accepted in
    let values =
      exact b
      @ [
          ("des.events_per_txn", float_of_int b.events /. txns);
          ("des.ns_per_event", wall *. 1e9 /. float_of_int b.events);
          ("des.major_gcs", float_of_int b.major_gcs);
          ("trace.overhead_per_s", completed_per_s b.sp_e2e -. completed_per_s untraced.sp_e2e);
        ]
    in
    let es = [ untraced.sp_e2e; b.sp_e2e; c'.sp_e2e ] in
    List.iter (report_check "sim-default") es;
    let ok = mismatches = [] && List.for_all (fun e -> e.check = Ok ()) es in
    {
      correct = ok;
      attempted = List.fold_left (fun a e -> a + e.attempted_txns) 0 es;
      failed = List.fold_left (fun a e -> a + e.failed_txns) 0 es;
      metrics = layer_metrics values;
    }
  end

(* ---- local-sign / local-state: Local_runtime ------------------------------- *)

(* Both workloads run whole passes of one to two seconds, each on a fresh
   runtime whose replicas start from [prefill] keys: [pass_txns]
   transactions each, enough for a p99 with ten latencies above it.
   local-state's stores start with 2,000 keys, so every batch digests a
   store of thousands of keys, as in a long run, while a pass stays short
   enough for a run to hold many of them. *)
type local_shape = { batch : int; fresh_keys : bool; prefill : int; pass_txns : int }

let local_shape = function
  | "local-sign" -> { batch = 100; fresh_keys = false; prefill = 0; pass_txns = 1000 }
  | _ -> { batch = 10; fresh_keys = true; prefill = 2000; pass_txns = 1000 }

(* Payloads come from the seed alone.  local-sign writes a 64-key hot set;
   local-state writes a fresh key every time. *)
let gen_payload shape rng i =
  if shape.fresh_keys then Printf.sprintf "SET s%d v%d" i (Random.State.bits rng)
  else Printf.sprintf "SET k%d v%d" (Random.State.int rng 64) (Random.State.bits rng)

(* The initial state every replica starts from, as SETs of keys no
   transaction writes. *)
let prefill_payloads shape rng =
  Array.init shape.prefill (fun i -> Printf.sprintf "SET p%d v%d" i (Random.State.bits rng))

let local_config shape seed =
  { Rt.default_config with Rt.n = 4; batch_size = shape.batch; seed = Int64.of_int seed }

let local_apply ~replica:_ store ~client:_ ~payload = kv_apply store payload

type local_pass = {
  lp_e2e : e2e;
  rt : Rt.t;
  initial : string array;  (** the prefilled state, as SETs *)
  payloads : string array;
  batches : int;
}

(* One closed-loop pass: the single client submits a batch of signed SETs,
   then waits (Local_runtime.run) until the batch is delivered, executed
   and accepted; then it sends the next, until [shape.pass_txns] are
   done.  With [spans], every transaction is
   a span with its generation and submit as children; the submit that
   fills a batch is rt.batch_admit and the delivery that follows is
   rt.run. *)
let local_pass ?spans ~shape ~seed () =
  let rng = Random.State.make [| seed; shape.batch |] in
  let rt = Rt.create ~config:(local_config shape seed) ~trace:(spans <> None) ~apply:local_apply () in
  let initial = prefill_payloads shape rng in
  for r = 0 to (local_config shape seed).Rt.n - 1 do
    Array.iter (fun p -> ignore (kv_apply (Rt.store rt r) p)) initial
  done;
  let submit = Fvec.create () and accept = Fvec.create () in
  let payloads = ref (Array.make 1024 "") in
  let submitted = ref 0 and accepted = ref 0 and batches = ref 0 in
  let segs = ref [] in
  let t0 = now () in
  while !submitted < shape.pass_txns do
    let tb = now () and first = !submitted in
    let last_root = ref (-1) in
    for k = 1 to shape.batch do
      let i = !submitted in
      let root = match spans with Some s -> Spans.open_ s ~txn:i "workload.txn" | None -> -1 in
      let payload =
        match spans with
        | Some s -> Spans.with_span s ~parent:root ~txn:i "workload.gen" (fun () -> gen_payload shape rng i)
        | None -> gen_payload shape rng i
      in
      if i >= Array.length !payloads then begin
        let b = Array.make (2 * i) "" in
        Array.blit !payloads 0 b 0 i;
        payloads := b
      end;
      !payloads.(i) <- payload;
      let ts = now () in
      Fvec.set submit i ts;
      let id =
        match spans with
        | Some s ->
          let name = if k = shape.batch then "rt.batch_admit" else "rt.submit" in
          Spans.with_span s ~parent:root ~txn:i name (fun () -> Rt.submit rt ~client:0 ~payload)
        | None -> Rt.submit rt ~client:0 ~payload
      in
      if id <> i then failwith "Local_runtime: transaction ids are not sequential";
      incr submitted;
      (match spans with Some s -> Spans.close s root | None -> ());
      last_root := root
    done;
    (match spans with
    | Some s -> Spans.with_span s ~parent:!last_root ~txn:(!submitted - 1) "rt.run" (fun () -> Rt.run rt)
    | None -> Rt.run rt);
    incr batches;
    let t = now () in
    let done_ = Rt.completed rt in
    List.iteri
      (fun j (id, _) ->
        if j >= !accepted then Fvec.set accept id t)
      done_;
    let now_accepted = List.length done_ in
    let lat =
      List.init (!submitted - first) (fun k -> first + k)
      |> List.filter (fun id -> Fvec.get accept id > 0.0)
      |> List.map (fun id -> (Fvec.get accept id -. Fvec.get submit id) *. 1e3)
      |> Array.of_list
    in
    segs :=
      { dur = t -. tb; txns = now_accepted - !accepted; seg_lat = lat; measured = true } :: !segs;
    accepted := now_accepted
  done;
  let wall = now () -. t0 in
  let n = !submitted in
  let payloads = Array.sub !payloads 0 n in
  let check =
    match Rt.verify rt with
    | Error e -> Error ("Local_runtime.verify: " ^ e)
    | Ok () ->
      if Mem_store.digest (replay (Array.append initial payloads) (shape.prefill + n))
         <> Mem_store.digest (Rt.store rt 0)
      then
        Error "final state digest differs from the sequential replay"
      else Ok ()
  in
  let e2e =
    {
      attempted_txns = n;
      accepted = !accepted;
      failed_txns = (match check with Ok () -> n - !accepted | Error _ -> n);
      check;
      window_txns = !accepted;
      window_s = wall;
      lat = latencies ~submit ~accept n;
      rss_mb = vm_hwm_mb "self";
      wall;
      segs = Array.of_list (List.rev !segs);
    }
  in
  { lp_e2e = e2e; rt; initial; payloads; batches = !batches }

let local_setup shape seed () = ignore (Rt.create ~config:(local_config shape seed) ~apply:local_apply ())

(* Delivered protocol messages by type, from Local_runtime.trace_json. *)
let count_messages json =
  let key = {|"cat":"stage","name":"|} in
  let kl = String.length key in
  let rec go i acc =
    match String.index_from_opt json i '"' with
    | None -> acc
    | Some j ->
      if j + kl <= String.length json && String.sub json j kl = key then
        let e = String.index_from json (j + kl) '"' in
        let name = String.sub json (j + kl) (e - j - kl) in
        go (e + 1) ((name, 1 + Option.value ~default:0 (List.assoc_opt name acc)) :: List.remove_assoc name acc)
      else go (j + 1) acc
  in
  go 0 []

let batch_strings payloads batch =
  let n = Array.length payloads in
  List.init ((n + batch - 1) / batch) (fun b ->
      String.concat "\x00" (Array.to_list (Array.sub payloads (b * batch) (min batch (n - (b * batch))))))

(* Layer timings replayed on the pass's own inputs; each is multiplied by
   the call count the pass made to give a share of its wall time. *)
let replay_crypto ~seed payloads =
  let k = min 50 (Array.length payloads) in
  let signer = Signer.create (Rng.create (Int64.of_int seed)) Signer.Ed25519 in
  let msgs = Array.init k (fun i -> Printf.sprintf "%d|%s" 0 payloads.(i)) in
  let sigs = Array.make k "" in
  let sign_s = time_per_call k (fun i -> sigs.(i) <- Signer.sign signer msgs.(i)) in
  let v = Signer.verifier signer in
  let verify_s =
    time_per_call k (fun i ->
        if not (Signer.verify v msgs.(i) ~signature:sigs.(i)) then failwith "replayed signature did not verify")
  in
  (sign_s, verify_s)

let replay_batches ~batch payloads =
  let strs = Array.of_list (batch_strings payloads batch) in
  let nb = Array.length strs in
  let bytes = Array.fold_left (fun a s -> a + String.length s) 0 strs in
  let digests = Array.make nb "" in
  let t0 = now () in
  Array.iteri (fun i s -> digests.(i) <- Sha256.digest s) strs;
  let sha_ns_per_byte = (now () -. t0) *. 1e9 /. float_of_int (max 1 bytes) in
  let mac = Cmac.of_secret "local-runtime-k!" in
  let auth =
    Array.mapi (fun i d -> Msg.auth_string (Msg.Prepare { view = 0; seq = i + 1; digest = d; from = 1 })) digests
  in
  let cmac_s = time_per_call nb (fun i -> ignore (Cmac.mac mac auth.(i))) in
  let ledger = Ledger.create ~primary_id:0 in
  let cert = [ (0, "commit-share"); (1, "commit-share"); (2, "commit-share") ] in
  let append_s =
    time_per_call nb (fun i ->
        Ledger.append ledger
          { Block.seq = i + 1; view = 0; digest = digests.(i); txn_count = batch; link = Block.Certificate cert })
  in
  (sha_ns_per_byte, cmac_s, append_s)

let run_local ~workload ~seconds ~trace ~out_dir ~seed =
  let shape = local_shape workload in
  if not trace then begin
    let es, setup_s =
      timed_passes ~seconds ~min_passes:3 ~rounds:2 ~setup:(local_setup shape seed) (fun () ->
          (local_pass ~shape ~seed ()).lp_e2e)
    in
    let e = merge es in
    report_check workload e;
    Printf.printf "%d passes of %d txns\n" (List.length es) shape.pass_txns;
    { correct = e.check = Ok (); attempted = e.attempted_txns; failed = e.failed_txns;
      metrics = e2e_metrics e (best_instance es) ~setup_s }
  end
  else begin
    let txns = shape.pass_txns in
    let a = local_pass ~shape ~seed () in
    let traced () =
      let spans = Spans.create () in
      let p = local_pass ~spans ~shape ~seed () in
      (p, spans)
    in
    let b, spans = traced () in
    let c, _ = traced () in
    let n = 4 in
    let exact p =
      let msgs = count_messages (Option.get (Rt.trace_json p.rt)) in
      let total_msgs = List.fold_left (fun a (_, c) -> a + c) 0 msgs in
      let ckpt = Rt.default_config.Rt.checkpoint_interval in
      let digest_calls =
        List.init n (fun r ->
            let seq = Rt.last_executed p.rt r in
            seq + (seq / ckpt))
        |> List.fold_left ( + ) 0
      in
      let blocks = Ledger.next_seq (Rt.ledger p.rt 0) - 1 in
      [
        ("consensus.msgs_per_batch", float_of_int total_msgs /. float_of_int p.batches);
        ("consensus.msgs_per_txn", float_of_int total_msgs /. float_of_int txns);
        ("storage.state_digest_calls", float_of_int digest_calls);
        ("chain.blocks_per_txn", float_of_int blocks /. float_of_int txns);
      ]
    in
    let mismatches = check_exact (exact b) (exact c) in
    List.iter (fun m -> Printf.eprintf "exact count did not repeat: %s\n" m) mismatches;
    let wall = b.lp_e2e.wall in
    write_spans spans ~out_dir ~workload ~seed ~wall;
    Printf.printf "messages delivered by type: %s\n"
      (String.concat ", "
         (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v)
            (List.sort compare (count_messages (Option.get (Rt.trace_json b.rt))))));
    let sign_s, verify_s = replay_crypto ~seed b.payloads in
    let sha, cmac_s, append_s = replay_batches ~batch:shape.batch b.payloads in
    (* A digest costs time linear in the store size, and the pass's calls
       are spread evenly over the sizes it went through: the share uses
       the store as it was halfway through the pass, the size a call sees
       on average. *)
    let digest_time n =
      let st = replay (Array.append b.initial b.payloads) (shape.prefill + n) in
      time_per_call 5 (fun _ -> ignore (Mem_store.digest st))
    in
    let digest_s = digest_time txns and digest_mean_s = digest_time (txns / 2) in
    let ex = exact b in
    let total_msgs = List.assoc "consensus.msgs_per_txn" ex *. float_of_int txns in
    let digest_calls = List.assoc "storage.state_digest_calls" ex in
    let sub_s, sub_n = Spans.total spans "rt.submit" in
    let adm_s, adm_n = Spans.total spans "rt.batch_admit" in
    let run_s, run_n = Spans.total spans "rt.run" in
    let gen_s, _ = Spans.total spans "workload.gen" in
    let ftx = float_of_int txns in
    let values =
      ex
      @ [
          ("rt.submit_us", sub_s /. float_of_int (max 1 sub_n) *. 1e6);
          ("rt.batch_admit_ms", adm_s /. float_of_int (max 1 adm_n) *. 1e3);
          ("rt.run_ms_per_batch", run_s /. float_of_int (max 1 run_n) *. 1e3);
          ("rt.submit_share", (sub_s +. adm_s) /. wall);
          ("rt.run_share", run_s /. wall);
          ("crypto.sign_us", sign_s *. 1e6);
          ("crypto.verify_us", verify_s *. 1e6);
          ("crypto.cmac_us", cmac_s *. 1e6);
          ("crypto.sha256_ns_per_byte", sha);
          ("crypto.sign_verify_share", ftx *. (sign_s +. verify_s) /. wall);
          ("crypto.verify_cache_hits", float_of_int (Rt.verify_cache_hits b.rt));
          (* one CMAC when a message is sent, one when it is received *)
          ("consensus.cmac_share", 2.0 *. total_msgs *. cmac_s /. wall);
          ("storage.state_digest_us", digest_s *. 1e6);
          ("storage.state_digest_share", digest_calls *. digest_mean_s /. wall);
          ("chain.append_us", append_s *. 1e6);
          ("workload.gen_busy_frac", (gen_s +. (ftx *. sign_s)) /. wall);
          (* the client waits in Local_runtime.run while its batch is in flight *)
          ("workload.window_full_frac", run_s /. wall);
          ("trace.overhead_per_s", commit_tps b.lp_e2e -. commit_tps a.lp_e2e);
        ]
    in
    let es = [ a.lp_e2e; b.lp_e2e; c.lp_e2e ] in
    List.iter (report_check workload) es;
    let ok = mismatches = [] && List.for_all (fun e -> e.check = Ok ()) es in
    {
      correct = ok;
      attempted = List.fold_left (fun a e -> a + e.attempted_txns) 0 es;
      failed = List.fold_left (fun a e -> a + e.failed_txns) 0 es;
      metrics = layer_metrics values;
    }
  end

(* ---- tcp-loopback: resdb_node processes over Tcp_transport ----------------- *)

let tcp_n = 4
let tcp_batch = 100
let tcp_window = 200

(* Every node process this program started and has not reaped yet. *)
let live_pids : int list ref = ref []

let reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  live_pids := List.filter (( <> ) pid) !live_pids

let reap_all () = List.iter reap !live_pids

let free_port () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let p = match Unix.getsockname s with Unix.ADDR_INET (_, p) -> p | _ -> 0 in
  Unix.close s;
  p

let accepts port =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let ok =
    try
      Unix.connect s (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      true
    with Unix.Unix_error _ -> false
  in
  Unix.close s;
  ok

type cluster = { pids : int array; ports : int array; logs : string array; spawned : float }

(* Spawn the nodes on fresh ephemeral ports and wait until every port
   accepts; returns the cluster and that set-up time. *)
let spawn_cluster ~node_exe ~out_dir ~duration =
  let rec distinct acc =
    if List.length acc = tcp_n then acc
    else
      let p = free_port () in
      distinct (if List.mem p acc then acc else p :: acc)
  in
  let ports = Array.of_list (distinct []) in
  let peers = String.concat "," (Array.to_list (Array.map (Printf.sprintf "127.0.0.1:%d") ports)) in
  let logs = Array.init tcp_n (fun i -> Filename.concat out_dir (Printf.sprintf "node-%d.log" i)) in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let t0 = now () in
  let pids =
    Array.init tcp_n (fun i ->
        let fd = Unix.openfile logs.(i) [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
        let pid =
          Unix.create_process node_exe
            [| node_exe; "--id"; string_of_int i; "--peers"; peers; "--batch"; string_of_int tcp_batch;
               "--duration"; Printf.sprintf "%.3f" duration |]
            devnull fd fd
        in
        Unix.close fd;
        live_pids := pid :: !live_pids;
        pid)
  in
  Unix.close devnull;
  let deadline = t0 +. 20.0 in
  Array.iter
    (fun port ->
      while not (accepts port) do
        if now () > deadline then failwith "tcp: nodes did not start listening";
        Unix.sleepf 0.001
      done)
    ports;
  ({ pids; ports; logs; spawned = t0 }, now () -. t0)

(* Wait for every node to exit on its own (its --duration), reaping it
   by force after [deadline]. *)
let await_exit cl ~deadline =
  Array.iter
    (fun pid ->
      let rec wait () =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ ->
          if now () > deadline then reap pid
          else begin
            Unix.sleepf 0.01;
            wait ()
          end
        | _ -> live_pids := List.filter (( <> ) pid) !live_pids
        | exception Unix.Unix_error _ -> live_pids := List.filter (( <> ) pid) !live_pids
      in
      wait ())
    cl.pids

(* "[node i] shutting down: N txns executed, state digest D" *)
let node_final log =
  match open_in log with
  | exception Sys_error _ -> None
  | ic ->
    let r = ref None in
    (try
       while true do
         let line = input_line ic in
         try
           Scanf.sscanf line "[node %_d] shutting down: %d txns executed, state digest %s" (fun n d ->
               r := Some (n, d))
         with Scanf.Scan_failure _ | End_of_file | Failure _ -> ()
       done
     with End_of_file -> ());
    close_in ic;
    !r

type tcp_pass = {
  tp_e2e : e2e;
  tp_payloads : string array;
  requests : string array;  (** encoded request frames, in send order *)
  reply_frames : string list;  (** a sample of received reply frames *)
  replies : int;
  send_failures : int;
}

let drain_s = 2.5

(* The measured window cut into windows of a second, each transaction in
   the one it was accepted in. *)
let tcp_windows ~submit ~accept ~t0 ~t_stop n =
  let k = max 1 (int_of_float ((t_stop -. t0) /. 1.0)) in
  let w = (t_stop -. t0) /. float_of_int k in
  let lats = Array.make k [] in
  for i = 0 to n - 1 do
    let s = Fvec.get submit i and a = Fvec.get accept i in
    if s > 0.0 && a > t0 && a <= t_stop then begin
      let j = min (k - 1) (int_of_float ((a -. t0) /. w)) in
      lats.(j) <- ((a -. s) *. 1e3) :: lats.(j)
    end
  done;
  Array.map
    (fun l ->
      let l = Array.of_list l in
      Array.sort compare l;
      { dur = w; txns = Array.length l; seg_lat = l; measured = true })
    lats

(* One closed-loop pass against a fresh cluster: the client keeps
   [tcp_window] requests outstanding on its one connection to the
   primary and accepts a transaction once f+1 replicas sent matching
   replies.  With [spans], each transaction is a span with generation,
   signing, window wait, encoding and send as children. *)
let tcp_pass ?spans ~seed ~seconds ~node_exe ~out_dir () =
  let f = (tcp_n - 1) / 3 in
  let probe_s = 0.2 in
  let cl, _ = spawn_cluster ~node_exe ~out_dir ~duration:(probe_s +. seconds +. drain_s) in
  Fun.protect ~finally:(fun () -> List.iter (fun p -> if Array.mem p cl.pids then reap p) !live_pids)
  @@ fun () ->
  let rng = Random.State.make [| seed; tcp_batch |] in
  let signer = Signer.create (Rng.create 4242L) Signer.Ed25519 in
  let lock = Mutex.create () and cond = Condition.create () in
  let inflight : (int, (string * int) list ref * int list ref) Hashtbl.t = Hashtbl.create 512 in
  let submit = Fvec.create () and accept = Fvec.create () in
  let replies = ref 0 and accepted = ref 0 and samples = ref [] in
  let on_message ~payload =
    match Wire.decode payload with
    | Ok (Wire.Reply { txn_id; from; result }) ->
      let t = now () in
      Mutex.lock lock;
      incr replies;
      if List.length !samples < 200 then samples := payload :: !samples;
      (match Hashtbl.find_opt inflight txn_id with
      | Some (results, senders) when not (List.mem from !senders) ->
        senders := from :: !senders;
        let c = 1 + Option.value ~default:0 (List.assoc_opt result !results) in
        results := (result, c) :: List.remove_assoc result !results;
        if c >= f + 1 then begin
          Hashtbl.remove inflight txn_id;
          Fvec.set accept txn_id t;
          incr accepted;
          Condition.signal cond
        end
      | _ -> ());
      Mutex.unlock lock
    | Ok _ | Error _ -> ()
  in
  let tr = Tcp.create ~on_message () in
  let my_port = Tcp.port tr in
  Tcp.set_peers tr [ (0, ("127.0.0.1", cl.ports.(0))) ];
  let payloads = ref [] and requests = ref [] in
  let sent = ref 0 in
  let span ?parent i name f =
    match spans with Some s -> Spans.with_span s ?parent ~txn:i name f | None -> f ()
  in
  let t0 = now () in
  while now () -. t0 < seconds do
    let i = !sent in
    let root = match spans with Some s -> Spans.open_ s ~txn:i "workload.txn" | None -> -1 in
    let payload =
      span ~parent:root i "workload.gen" (fun () ->
          Printf.sprintf "SET k%d v%d" (Random.State.int rng 64) (Random.State.bits rng))
    in
    let signature =
      span ~parent:root i "crypto.sign" (fun () -> Wire.sign_request signer ~client:1 ~txn_id:i ~payload)
    in
    span ~parent:root i "workload.window_wait" (fun () ->
        Mutex.lock lock;
        while Hashtbl.length inflight >= tcp_window do
          Condition.wait cond lock
        done;
        Hashtbl.replace inflight i (ref [], ref []);
        Mutex.unlock lock);
    let frame =
      span ~parent:root i "codec.encode" (fun () ->
          Wire.encode
            (Wire.Request
               { client = 1; reply_host = "127.0.0.1"; reply_port = my_port; txn_id = i; payload; signature }))
    in
    Fvec.set submit i (now ());
    if not (span ~parent:root i "net.send" (fun () -> Tcp.send tr ~to_:0 frame)) then begin
      Mutex.lock lock;
      Hashtbl.remove inflight i;
      Mutex.unlock lock
    end;
    payloads := payload :: !payloads;
    requests := frame :: !requests;
    incr sent;
    match spans with Some s -> Spans.close s root | None -> ()
  done;
  let t_stop = now () in
  Mutex.lock lock;
  let in_window = ref 0 in
  for i = 0 to !sent - 1 do
    let a = Fvec.get accept i in
    if a > 0.0 && a <= t_stop then incr in_window
  done;
  Mutex.unlock lock;
  let drain_deadline = cl.spawned +. probe_s +. seconds +. drain_s -. 0.2 in
  let rec drain () =
    Mutex.lock lock;
    let left = Hashtbl.length inflight in
    Mutex.unlock lock;
    if left > 0 && now () < drain_deadline then begin
      Thread.delay 0.005;
      drain ()
    end
  in
  drain ();
  let t_drained = now () in
  let rss = Array.fold_left (fun m pid -> Float.max m (vm_hwm_mb (string_of_int pid))) 0.0 cl.pids in
  await_exit cl ~deadline:(cl.spawned +. probe_s +. seconds +. drain_s +. 5.0);
  Tcp.shutdown tr;
  let n = !sent in
  let payloads = Array.of_list (List.rev !payloads) in
  let expect = String.sub (Sha256.hex (Mem_store.digest (replay payloads n))) 0 16 in
  let check =
    let finals = Array.map node_final cl.logs in
    match Array.find_opt Option.is_none finals with
    | Some _ -> Error "a node logged no final state digest"
    | None ->
      let finals = Array.map Option.get finals in
      if Array.exists (fun (_, d) -> d <> expect) finals then
        Error
          (Printf.sprintf "node digests %s, replay %s"
             (String.concat "," (Array.to_list (Array.map snd finals))) expect)
      else if Array.exists (fun (x, _) -> x <> n) finals then Error "a node did not execute every request"
      else Ok ()
  in
  let e2e =
    {
      attempted_txns = n;
      accepted = !accepted;
      failed_txns = (match check with Ok () -> n - !accepted | Error _ -> n);
      check;
      window_txns = !in_window;
      window_s = t_stop -. t0;
      lat = latencies ~submit ~accept n;
      rss_mb = rss;
      wall = t_drained -. t0;
      segs = tcp_windows ~submit ~accept ~t0 ~t_stop n;
    }
  in
  {
    tp_e2e = e2e;
    tp_payloads = payloads;
    requests = Array.of_list (List.rev !requests);
    reply_frames = !samples;
    replies = !replies;
    send_failures = Tcp.send_failures tr;
  }

let run_tcp ~seconds ~trace ~out_dir ~seed ~node_exe =
  (* Set-up samples: spawn a cluster until it listens, then reap it. *)
  let setup () =
    let cl, dt = spawn_cluster ~node_exe ~out_dir ~duration:30.0 in
    Array.iter reap cl.pids;
    dt
  in
  let seconds = float_of_int seconds in
  if not trace then begin
    (* three set-up samples before measuring and three after, the first
       spawn, with a cold page cache and a cold kernel, left out *)
    let samples () = List.init 3 (fun _ -> setup ()) in
    ignore (setup ());
    let before = samples () in
    let p = tcp_pass ~seed ~seconds ~node_exe ~out_dir () in
    let setup_s = median (before @ samples ()) in
    let e = p.tp_e2e in
    report_check "tcp-loopback" e;
    { correct = e.check = Ok (); attempted = e.attempted_txns; failed = e.failed_txns;
      metrics = e2e_metrics e (window_quartiles e) ~setup_s }
  end
  else begin
    (* an untraced and a traced pass of half the run each *)
    let seconds = seconds /. 2.0 in
    let a = tcp_pass ~seed ~seconds ~node_exe ~out_dir () in
    let spans = Spans.create () in
    let b = tcp_pass ~spans ~seed ~seconds ~node_exe ~out_dir () in
    let wall = b.tp_e2e.window_s in
    write_spans spans ~out_dir ~workload:"tcp-loopback" ~seed ~wall;
    let n = Array.length b.requests in
    let fn = float_of_int n in
    let k = min 200 n in
    let encode_s =
      let reqs =
        Array.map (fun fr -> match Wire.decode fr with Ok r -> r | Error e -> failwith e) (Array.sub b.requests 0 k)
      in
      time_per_call k (fun i -> ignore (Wire.encode reqs.(i)))
    in
    let frames = Array.of_list b.reply_frames in
    let decode_s = time_per_call (Array.length frames) (fun i -> ignore (Wire.decode frames.(i))) in
    let verifier = Signer.verifier (Signer.create (Rng.create 4242L) Signer.Ed25519) in
    let kv = min 20 n in
    let verify_s =
      time_per_call kv (fun i ->
          match Wire.decode b.requests.(i) with
          | Ok (Wire.Request { client; txn_id; payload; signature; _ }) ->
            if not (Wire.verify_request verifier ~client ~txn_id ~payload ~signature) then
              failwith "replayed request did not verify"
          | _ -> failwith "replayed request did not decode")
    in
    let sign_s, sign_n = Spans.total spans "crypto.sign" in
    let gen_s, _ = Spans.total spans "workload.gen" in
    let wait_s, _ = Spans.total spans "workload.window_wait" in
    let send_s, send_n = Spans.total spans "net.send" in
    let sha, _, _ = replay_batches ~batch:tcp_batch b.tp_payloads in
    let values =
      [
        ("crypto.sign_us", sign_s /. float_of_int (max 1 sign_n) *. 1e6);
        ("crypto.verify_us", verify_s *. 1e6);
        ("crypto.sha256_ns_per_byte", sha);
        (* signing runs in the client, verification in the primary's process *)
        ("crypto.sign_verify_share", (sign_s +. (fn *. verify_s)) /. wall);
        ("codec.encode_us", encode_s *. 1e6);
        ("codec.decode_us", decode_s *. 1e6);
        ("net.send_us", send_s /. float_of_int (max 1 send_n) *. 1e6);
        ("net.replies_per_txn", float_of_int b.replies /. fn);
        ("net.send_failures", float_of_int b.send_failures);
        ("workload.gen_busy_frac", (gen_s +. sign_s) /. wall);
        ("workload.window_full_frac", wait_s /. wall);
        ("trace.overhead_per_s", commit_tps b.tp_e2e -. commit_tps a.tp_e2e);
      ]
    in
    let es = [ a.tp_e2e; b.tp_e2e ] in
    List.iter (report_check "tcp-loopback") es;
    {
      correct = List.for_all (fun e -> e.check = Ok ()) es;
      attempted = List.fold_left (fun a e -> a + e.attempted_txns) 0 es;
      failed = List.fold_left (fun a e -> a + e.failed_txns) 0 es;
      metrics = layer_metrics values;
    }
  end

(* ---- command line ------------------------------------------------------------ *)

let workloads = [ "sim-default"; "local-sign"; "local-state"; "tcp-loopback" ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let node_exe = ref "_build/default/bin/resdb_node.exe" and out_dir = ref ".perfbench" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_int seconds, " measured wall seconds per run");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: traced per-layer metrics");
      ("--node-exe", Arg.Set_string node_exe, " path of resdb_node.exe");
      ("--out-dir", Arg.Set_string out_dir, " directory for node logs and span files");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) || !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "perfbench: bad --workload, --seconds or --trace";
    exit 2
  end;
  (try Unix.mkdir !out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let on_term = Sys.Signal_handle (fun _ -> reap_all (); exit 130) in
  Sys.set_signal Sys.sigterm on_term;
  Sys.set_signal Sys.sigint on_term;
  at_exit reap_all;
  let trace = !trace = 1 and seconds = !seconds and seed = !seed and out_dir = !out_dir in
  Printf.printf "perfbench %s seed=%d seconds=%d trace=%b\n%!" !workload seed seconds trace;
  let o =
    match !workload with
    | "sim-default" -> run_sim ~seconds ~trace ~out_dir ~seed
    | "tcp-loopback" -> run_tcp ~seconds ~trace ~out_dir ~seed ~node_exe:!node_exe
    | w -> run_local ~workload:w ~seconds ~trace ~out_dir ~seed
  in
  print_outcome o;
  exit (if o.correct then 0 else 1)
