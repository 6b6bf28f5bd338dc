(* resdb_node: one ResilientDB replica as a real networked process.

   The replica logic lives in the library: Rdb_core.Replica_host (batching,
   MAC checks, execution, ledger, checkpoints, state transfer) behind
   Rdb_core.Tcp_node (the TCP wiring).  This file is only the command line
   and the log lines.  A 4-node cluster on one machine:

     resdb_sim_build=_build/default/bin
     for i in 0 1 2 3; do
       $resdb_sim_build/resdb_node.exe --id $i \
         --peers 127.0.0.1:5000,127.0.0.1:5001,127.0.0.1:5002,127.0.0.1:5003 \
         --batch 10 --duration 30 &
     done
     $resdb_sim_build/resdb_client.exe \
       --peers 127.0.0.1:5000,127.0.0.1:5001,127.0.0.1:5002,127.0.0.1:5003 \
       --count 2000

   A node restarted with the same arguments catches up by state transfer. *)

open Cmdliner
module Node = Rdb_core.Tcp_node

let run id peers_s batch_size duration verbose =
  let peers = Node.parse_peers peers_s in
  let n = List.length peers in
  let _, (_, my_port) = List.nth peers id in
  let node = Node.start ~verbose ~port:my_port ~id ~n ~batch_size () in
  Node.set_peers node peers;
  Printf.printf "[node %d] listening on port %d (%s), n=%d f=%d batch=%d\n%!" id my_port
    (if (Node.status node).Node.leads then "PRIMARY" else "backup")
    n ((n - 1) / 3) batch_size;
  let start = Unix.gettimeofday () in
  let last_report = ref start in
  let last_count = ref 0 in
  let running = ref true in
  while !running do
    Thread.delay 0.005;
    let now = Unix.gettimeofday () in
    if now -. !last_report >= 2.0 then begin
      let s = Node.status node in
      Printf.printf "[node %d] executed %d txns (%.0f/s), seq %d, chain %d blocks\n%!" id
        s.Node.executed_txns
        (float_of_int (s.Node.executed_txns - !last_count) /. (now -. !last_report))
        s.Node.last_executed s.Node.chain_blocks;
      last_count := s.Node.executed_txns;
      last_report := now
    end;
    if duration > 0.0 && now -. start > duration then running := false
  done;
  Printf.printf "[node %d] shutting down: %d txns executed, state digest %s\n%!" id
    (Node.status node).Node.executed_txns
    (String.sub (Rdb_crypto.Sha256.hex (Node.state_digest node)) 0 16);
  Node.stop node;
  0

let cmd =
  let open Arg in
  let id = required & opt (some int) None & info [ "id" ] ~doc:"This replica's id (0-based)." in
  let peers =
    required
    & opt (some string) None
    & info [ "peers" ] ~doc:"Comma-separated host:port list; position = replica id."
  in
  let batch = value & opt int 10 & info [ "batch" ] ~doc:"Transactions per batch." in
  let duration =
    value & opt float 0.0 & info [ "duration" ] ~doc:"Exit after this many seconds (0 = run forever)."
  in
  let verbose = value & flag & info [ "v"; "verbose" ] ~doc:"Log rejected traffic." in
  Cmd.v
    (Cmd.info "resdb_node" ~doc:"Run one ResilientDB PBFT replica over real TCP")
    Term.(const run $ id $ peers $ batch $ duration $ verbose)

let () = exit (Cmd.eval' cmd)
