(* Network layer tests: the wire codec (exhaustive roundtrips + malformed
   input), stream framing, the simulated datacenter network (latency,
   bandwidth serialization, crash drops), the real TCP transport, and the
   shared networked node: 4-replica agreement over localhost sockets (badly
   signed client requests dropped before they reach a batch) and a
   restarted backup catching up by state transfer. *)

module Codec = Rdb_consensus.Codec
module Msg = Rdb_consensus.Message
module Net = Rdb_net.Net
module Tcp = Rdb_net.Tcp_transport
module Sim = Rdb_des.Sim
module Rng = Rdb_des.Rng

let check = Alcotest.check
let qtest p = QCheck_alcotest.to_alcotest p

(* ---- codec ----------------------------------------------------------------- *)

let sample_batch =
  {
    Msg.view = 3;
    seq = 123_456_789_012;
    digest = "digest-bytes\x00\xff";
    reqs = [ { Msg.client = 7; txn_id = 99 }; { Msg.client = 8; txn_id = 100 } ];
    wire_bytes = 4096;
  }

let sample_messages =
  [
    Msg.Pre_prepare { view = 1; seq = 42; batch = sample_batch; from = 0 };
    Msg.Prepare { view = 1; seq = 42; digest = "d"; from = 3 };
    Msg.Commit { view = 0; seq = 1; digest = String.make 32 '\x01'; from = 15 };
    Msg.Checkpoint { seq = 10_000; state_digest = "state"; from = 2 };
    Msg.View_change
      {
        new_view = 2;
        last_stable = 100;
        prepared =
          [ { Msg.p_view = 1; p_seq = 101; p_digest = "pd"; p_batch = sample_batch } ];
        from = 1;
      };
    Msg.New_view { view = 2; vc_senders = [ 1; 2; 3 ]; pre_prepares = [ sample_batch ]; from = 2 };
    Msg.Order_request { view = 0; seq = 7; batch = sample_batch; history = "h"; from = 0 };
    Msg.Commit_cert { view = 0; seq = 7; digest = "h"; client = 1000; responders = [ 0; 1; 2 ] };
    Msg.Reply { view = 0; seq = 7; txn_id = 55; client = 1000; from = 3; result = "ok" };
    Msg.Spec_reply { view = 0; seq = 7; txn_id = 55; client = 1000; from = 3; history = "hh" };
    Msg.Local_commit { view = 0; seq = 7; client = 1000; from = 3 };
    Msg.Fill_hole { view = 1; from_seq = 10; to_seq = 20; from = 2 };
  ]

let test_codec_roundtrip_all_variants () =
  List.iter
    (fun m ->
      match Codec.decode (Codec.encode m) with
      | Ok m' ->
        Alcotest.(check bool) (Msg.type_name m ^ " roundtrips") true (m = m')
      | Error e -> Alcotest.failf "%s failed to decode: %s" (Msg.type_name m) e)
    sample_messages

let test_codec_rejects_malformed () =
  Alcotest.(check bool) "empty" true (Result.is_error (Codec.decode ""));
  Alcotest.(check bool) "unknown tag" true (Result.is_error (Codec.decode "\xfe\x00\x00"));
  let good = Codec.encode (List.hd sample_messages) in
  Alcotest.(check bool) "truncated" true
    (Result.is_error (Codec.decode (String.sub good 0 (String.length good / 2))));
  Alcotest.(check bool) "trailing garbage" true (Result.is_error (Codec.decode (good ^ "x")))

let test_codec_never_raises_on_fuzz () =
  let rng = Rng.create 31337L in
  for _ = 1 to 5_000 do
    let len = Rng.int rng 64 in
    let s = String.init len (fun _ -> Char.chr (Rng.int rng 256)) in
    match Codec.decode s with Ok _ | Error _ -> ()
  done

let arb_message =
  let open QCheck.Gen in
  let small = int_bound 1000 in
  let str = string_size ~gen:(map Char.chr (int_range 0 255)) (0 -- 40) in
  let req = map2 (fun c t -> { Msg.client = c; txn_id = t }) small small in
  let batch =
    map (fun (view, seq, digest, reqs, wire) -> { Msg.view; seq; digest; reqs; wire_bytes = wire })
      (tup5 small small str (list_size (0 -- 5) req) small)
  in
  let gen =
    frequency
      [
        (2, map2 (fun b f -> Msg.Pre_prepare { view = b.Msg.view; seq = b.Msg.seq; batch = b; from = f }) batch small);
        (3, map (fun (v, s, d, f) -> Msg.Prepare { view = v; seq = s; digest = d; from = f }) (tup4 small small str small));
        (3, map (fun (v, s, d, f) -> Msg.Commit { view = v; seq = s; digest = d; from = f }) (tup4 small small str small));
        (1, map (fun (s, d, f) -> Msg.Checkpoint { seq = s; state_digest = d; from = f }) (tup3 small str small));
        (1, map2 (fun b (v, h, f) -> Msg.Order_request { view = v; seq = b.Msg.seq; batch = b; history = h; from = f }) batch (tup3 small str small));
        (1, map (fun (v, s, t, c) -> Msg.Reply { view = v; seq = s; txn_id = t; client = c; from = 0; result = "r" }) (tup4 small small small small));
      ]
  in
  QCheck.make ~print:Msg.type_name gen

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"codec: decode . encode = id" ~count:500 arb_message (fun m ->
      Codec.decode (Codec.encode m) = Ok m)

(* ---- application wire format (deployment layer) ----------------------------- *)

module Wire = Rdb_core.Wire

let test_wire_request_roundtrip () =
  let r =
    Wire.Request
      {
        client = 7;
        reply_host = "10.0.0.3";
        reply_port = 5123;
        txn_id = 99;
        payload = "SET k \x00binary";
        signature = String.make 64 's';
      }
  in
  Alcotest.(check bool) "request roundtrips" true (Wire.decode (Wire.encode r) = Ok r)

let test_wire_consensus_with_attachments () =
  let m = Msg.Pre_prepare { view = 0; seq = 5; batch = sample_batch; from = 0 } in
  let w =
    Wire.Consensus
      {
        msg = m;
        tag = String.make 16 't';
        attachments =
          [
            {
              Wire.a_txn_id = 99;
              a_client = 7;
              a_reply_host = "127.0.0.1";
              a_reply_port = 9000;
              a_payload = "SET a 1";
            };
          ];
      }
  in
  Alcotest.(check bool) "consensus+attachments roundtrips" true (Wire.decode (Wire.encode w) = Ok w)

let test_wire_reply_roundtrip () =
  let w = Wire.Reply { txn_id = 3; from = 2; result = "OK" } in
  Alcotest.(check bool) "reply roundtrips" true (Wire.decode (Wire.encode w) = Ok w)

let test_wire_rejects_garbage () =
  Alcotest.(check bool) "empty" true (Result.is_error (Wire.decode ""));
  Alcotest.(check bool) "unknown kind" true (Result.is_error (Wire.decode "Zjunk"));
  Alcotest.(check bool) "truncated request" true (Result.is_error (Wire.decode "R\x00\x00"))

let test_wire_request_signatures () =
  let rng = Rng.create 4242L in
  let signer = Rdb_crypto.Signer.create rng Rdb_crypto.Signer.Ed25519 in
  let verifier = Rdb_crypto.Signer.verifier signer in
  let signature = Wire.sign_request signer ~client:1 ~txn_id:5 ~payload:"SET a 1" in
  Alcotest.(check bool) "valid" true
    (Wire.verify_request verifier ~client:1 ~txn_id:5 ~payload:"SET a 1" ~signature);
  Alcotest.(check bool) "payload tamper" false
    (Wire.verify_request verifier ~client:1 ~txn_id:5 ~payload:"SET a 2" ~signature);
  Alcotest.(check bool) "txn splice" false
    (Wire.verify_request verifier ~client:1 ~txn_id:6 ~payload:"SET a 1" ~signature);
  Alcotest.(check bool) "client splice" false
    (Wire.verify_request verifier ~client:2 ~txn_id:5 ~payload:"SET a 1" ~signature)

(* ---- framing ------------------------------------------------------------------ *)

let test_deframer_reassembles_split_frames () =
  let payloads = [ "alpha"; ""; String.make 10_000 'z'; "omega" ] in
  let stream = String.concat "" (List.map Codec.frame payloads) in
  let out = ref [] in
  let buf = Buffer.create 64 in
  (* Feed the byte stream in pathological 3-byte chunks. *)
  let rec feed off =
    if off < String.length stream then begin
      let n = min 3 (String.length stream - off) in
      Buffer.add_substring buf stream off n;
      Codec.read_frame buf (fun p -> out := p :: !out);
      feed (off + n)
    end
  in
  feed 0;
  check Alcotest.(list string) "all frames, in order" payloads (List.rev !out);
  check Alcotest.int "no leftover bytes" 0 (Buffer.length buf)

let test_deframer_keeps_partial () =
  let buf = Buffer.create 16 in
  Buffer.add_string buf (String.sub (Codec.frame "hello") 0 4);
  let out = ref [] in
  Codec.read_frame buf (fun p -> out := p :: !out);
  check Alcotest.(list string) "nothing delivered yet" [] !out;
  check Alcotest.int "partial retained" 4 (Buffer.length buf)

(* ---- simulated network ----------------------------------------------------------- *)

let test_simnet_latency () =
  let sim = Sim.create () in
  let rng = Rng.create 1L in
  let arrivals = ref [] in
  let net = ref None in
  let deliver ~dst ~src:_ payload = arrivals := (dst, payload, Sim.now sim) :: !arrivals in
  net := Some (Net.create sim ~nodes:3 ~bandwidth_gbps:8.0 ~latency:(Sim.us 100.0) ~rng ~deliver ());
  let n = Option.get !net in
  Net.send n ~src:0 ~dst:1 ~bytes:1000 "hello";
  Sim.run sim;
  (match !arrivals with
  | [ (1, "hello", at) ] ->
    (* 1000 bytes at 8 Gbit/s = 1 us transmission + 100 us latency. *)
    check Alcotest.int "arrival time" (Sim.us 101.0) at
  | _ -> Alcotest.fail "expected exactly one arrival");
  check Alcotest.int "bytes accounted" 1000 (Net.bytes_sent n)

let test_simnet_nic_serializes () =
  let sim = Sim.create () in
  let rng = Rng.create 2L in
  let arrivals = ref [] in
  let net = ref None in
  let deliver ~dst:_ ~src:_ () = arrivals := Sim.now sim :: !arrivals in
  net := Some (Net.create sim ~nodes:2 ~bandwidth_gbps:8.0 ~latency:0 ~rng ~deliver ());
  let n = Option.get !net in
  (* Two 1KB messages from the same NIC: the second waits for the first. *)
  Net.send n ~src:0 ~dst:1 ~bytes:1000 ();
  Net.send n ~src:0 ~dst:1 ~bytes:1000 ();
  Sim.run sim;
  check Alcotest.(list int) "serialized transmissions" [ Sim.us 2.0; Sim.us 1.0 ] !arrivals

let test_simnet_crash_drops () =
  let sim = Sim.create () in
  let rng = Rng.create 3L in
  let count = ref 0 in
  let net = ref None in
  let deliver ~dst:_ ~src:_ () = incr count in
  net := Some (Net.create sim ~nodes:3 ~bandwidth_gbps:8.0 ~latency:0 ~rng ~deliver ());
  let n = Option.get !net in
  Net.crash n 1;
  Net.send n ~src:0 ~dst:1 ~bytes:10 ();
  (* crashed dst *)
  Net.send n ~src:1 ~dst:0 ~bytes:10 ();
  (* crashed src *)
  Net.send n ~src:0 ~dst:2 ~bytes:10 ();
  (* live *)
  Sim.run sim;
  check Alcotest.int "only the live pair delivers" 1 !count;
  Alcotest.(check bool) "is_crashed" true (Net.is_crashed n 1);
  Net.recover n 1;
  Net.send n ~src:0 ~dst:1 ~bytes:10 ();
  Sim.run sim;
  check Alcotest.int "recovered node receives" 2 !count

(* ---- TCP transport ------------------------------------------------------------------ *)

let rec wait_until ?(tries = 500) pred =
  if tries = 0 then false
  else if pred () then true
  else begin
    Thread.delay 0.01;
    wait_until ~tries:(tries - 1) pred
  end

let test_tcp_two_nodes () =
  let got = ref [] in
  let lock = Mutex.create () in
  let a = Tcp.create ~on_message:(fun ~payload ->
      Mutex.lock lock; got := payload :: !got; Mutex.unlock lock) () in
  let b = Tcp.create ~on_message:(fun ~payload:_ -> ()) () in
  Tcp.set_peers b [ (0, ("127.0.0.1", Tcp.port a)) ];
  Alcotest.(check bool) "send succeeds" true (Tcp.send b ~to_:0 "ping-1");
  Alcotest.(check bool) "second send" true (Tcp.send b ~to_:0 "ping-2");
  Alcotest.(check bool) "delivery" true (wait_until (fun () ->
      Mutex.lock lock;
      let n = List.length !got in
      Mutex.unlock lock;
      n = 2));
  Mutex.lock lock;
  check Alcotest.(list string) "order preserved" [ "ping-1"; "ping-2" ] (List.rev !got);
  Mutex.unlock lock;
  Alcotest.(check bool) "unknown peer fails" false (Tcp.send b ~to_:42 "nope");
  Tcp.shutdown a;
  Tcp.shutdown b

let test_tcp_down_peer_fails_fast () =
  let gone = Tcp.create ~on_message:(fun ~payload:_ -> ()) () in
  let port = Tcp.port gone in
  Tcp.shutdown gone;
  let a = Tcp.create ~on_message:(fun ~payload:_ -> ()) () in
  Tcp.set_peers a [ (1, ("127.0.0.1", port)) ];
  Alcotest.(check bool) "refused" false (Tcp.send a ~to_:1 "x");
  let t0 = Unix.gettimeofday () in
  Alcotest.(check bool) "still down" false (Tcp.send a ~to_:1 "x");
  Alcotest.(check bool) "without another round of connect attempts" true
    (Unix.gettimeofday () -. t0 < 0.05);
  check Alcotest.int "both counted" 2 (Tcp.send_failures a);
  Tcp.shutdown a

(* ---- the shared TCP node ------------------------------------------------------ *)

module Node = Rdb_core.Tcp_node
module Mem_store = Rdb_storage.Mem_store

(* Four Tcp_node replicas in one process on ephemeral loopback ports,
   talking only through real sockets and the wire format. *)
let start_nodes ~batch_size () =
  let nodes = Array.init 4 (fun id -> Node.start ~id ~n:4 ~batch_size ()) in
  let directory = List.init 4 (fun id -> (id, ("127.0.0.1", Node.port nodes.(id)))) in
  Array.iter (fun node -> Node.set_peers node directory) nodes;
  (nodes, directory)

(* A client that signs each "SET" with the demo key and sends it to the
   primary; replies land on its own listener and are ignored.  Returns the
   client's transport, a submit function yielding the next txn id (with
   [~forged:true] the request carries a payload other than the one signed)
   and the genuine payloads sent so far. *)
let signed_client nodes =
  let signer = Node.client_signer () in
  let tr = Tcp.create ~on_message:(fun ~payload:_ -> ()) () in
  Tcp.set_peers tr [ (0, ("127.0.0.1", Node.port nodes.(0))) ];
  let sent = ref [] and next = ref 0 in
  let submit ?(forged = false) () =
    let txn_id = !next in
    incr next;
    let payload = Printf.sprintf "SET k%d v%d" (txn_id mod 7) txn_id in
    if not forged then sent := payload :: !sent;
    let signed = if forged then payload ^ "0" else payload in
    let signature = Wire.sign_request signer ~client:1 ~txn_id ~payload:signed in
    let reply_port = Tcp.port tr in
    ignore
      (Tcp.send tr ~to_:0
         (Wire.encode
            (Wire.Request { client = 1; reply_host = "127.0.0.1"; reply_port; txn_id; payload; signature })));
    txn_id
  in
  (tr, submit, fun () -> List.rev !sent)

let replay payloads =
  let st = Mem_store.create () in
  List.iter
    (fun p ->
      match String.split_on_char ' ' p with [ "SET"; k; v ] -> Mem_store.put st k v | _ -> ())
    payloads;
  Rdb_crypto.Sha256.hex (Mem_store.digest st)

let hex_state node = Rdb_crypto.Sha256.hex (Node.state_digest node)

let check_agreement nodes ~expected =
  let height = (Node.status nodes.(0)).Node.chain_blocks in
  Array.iteri
    (fun id node ->
      check Alcotest.string (Printf.sprintf "node %d state" id) expected (hex_state node);
      check Alcotest.int
        (Printf.sprintf "node %d ledger height" id)
        height (Node.status node).Node.chain_blocks)
    nodes

let test_tcp_pbft_cluster_agreement () =
  let nodes, _ = start_nodes ~batch_size:10 () in
  let client, submit, sent = signed_client nodes in
  (* A request whose payload does not match its signature is dropped on the
     primary's receive thread and never executes. *)
  ignore (submit ~forged:true ());
  for _ = 1 to 25 do
    ignore (submit ())
  done;
  (* 25 is not a multiple of the batch size: the tail goes out through the
     flush loop's partial batch. *)
  Alcotest.(check bool) "every node executed every request" true
    (wait_until (fun () ->
         Array.for_all (fun nd -> (Node.status nd).Node.executed_txns = 25) nodes));
  check_agreement nodes ~expected:(replay (sent ()));
  Tcp.shutdown client;
  Array.iter Node.stop nodes

let test_tcp_restart_catches_up () =
  (* Nodes checkpoint every 100 sequence numbers; with one request per
     batch a request's sequence number is its txn id + 1. *)
  let nodes, directory = start_nodes ~batch_size:1 () in
  let client, submit, sent = signed_client nodes in
  let burst k =
    let last = ref 0 in
    for _ = 1 to k do
      last := submit () + 1
    done;
    !last
  in
  let executed ids seq =
    wait_until ~tries:3000 (fun () ->
        List.for_all (fun i -> (Node.status nodes.(i)).Node.last_executed >= seq) ids)
  in
  Alcotest.(check bool) "all four executed" true (executed [ 0; 1; 2; 3 ] (burst 10));
  (* Backup 3 goes down; the others commit past two checkpoints (100 and
     200) and prune their ledgers below them. *)
  let port3 = Node.port nodes.(3) in
  Node.stop nodes.(3);
  Alcotest.(check bool) "three replicas commit without it" true (executed [ 0; 1; 2 ] (burst 210));
  (* Restart on the same port with an empty store and ledger, then keep
     200 requests in flight: the restarted node hears the stable
     checkpoint at 300 while later batches are still being ordered, so it
     must hold those until the transferred state lands. *)
  nodes.(3) <- Node.start ~port:port3 ~id:3 ~n:4 ~batch_size:1 ();
  Node.set_peers nodes.(3) directory;
  let last = burst 200 in
  Alcotest.(check bool) "every node executed everything" true (executed [ 0; 1; 2; 3 ] last);
  check_agreement nodes ~expected:(replay (sent ()));
  Alcotest.(check bool) "by state transfer, not re-execution" true
    ((Node.status nodes.(3)).Node.executed_txns < (Node.status nodes.(0)).Node.executed_txns);
  Tcp.shutdown client;
  Array.iter Node.stop nodes

let test_parse_peers () =
  check Alcotest.(list (pair int (pair string int))) "position is the replica id"
    [ (0, ("127.0.0.1", 5100)); (1, ("10.0.0.2", 7)) ] (Node.parse_peers "127.0.0.1:5100,10.0.0.2:7");
  Alcotest.check_raises "missing port" (Failure "bad peer: localhost") (fun () ->
      ignore (Node.parse_peers "127.0.0.1:5100,localhost"))

let () =
  Alcotest.run "rdb_net"
    [
      ( "codec",
        [
          Alcotest.test_case "roundtrip all variants" `Quick test_codec_roundtrip_all_variants;
          Alcotest.test_case "rejects malformed" `Quick test_codec_rejects_malformed;
          Alcotest.test_case "never raises on fuzz" `Quick test_codec_never_raises_on_fuzz;
          qtest prop_codec_roundtrip;
        ] );
      ( "wire",
        [
          Alcotest.test_case "request roundtrip" `Quick test_wire_request_roundtrip;
          Alcotest.test_case "consensus + attachments" `Quick test_wire_consensus_with_attachments;
          Alcotest.test_case "reply roundtrip" `Quick test_wire_reply_roundtrip;
          Alcotest.test_case "garbage rejected" `Quick test_wire_rejects_garbage;
          Alcotest.test_case "request signature binding" `Quick test_wire_request_signatures;
        ] );
      ( "framing",
        [
          Alcotest.test_case "split frames reassemble" `Quick test_deframer_reassembles_split_frames;
          Alcotest.test_case "partial frame retained" `Quick test_deframer_keeps_partial;
        ] );
      ( "simulated",
        [
          Alcotest.test_case "latency model" `Quick test_simnet_latency;
          Alcotest.test_case "NIC serialization" `Quick test_simnet_nic_serializes;
          Alcotest.test_case "crash drops traffic" `Quick test_simnet_crash_drops;
        ] );
      ( "tcp",
        [
          Alcotest.test_case "two nodes over sockets" `Quick test_tcp_two_nodes;
          Alcotest.test_case "down peer fails fast" `Quick test_tcp_down_peer_fails_fast;
          Alcotest.test_case "4-replica PBFT over TCP" `Quick test_tcp_pbft_cluster_agreement;
          Alcotest.test_case "restarted backup catches up by state transfer" `Quick
            test_tcp_restart_catches_up;
          Alcotest.test_case "peer list parsing" `Quick test_parse_peers;
        ] );
    ]
