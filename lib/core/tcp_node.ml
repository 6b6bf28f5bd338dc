module Msg = Rdb_consensus.Message
module Config = Rdb_consensus.Config
module Core = Rdb_consensus.Core
module Tcp = Rdb_net.Tcp_transport
module Signer = Rdb_crypto.Signer
module Cmac = Rdb_crypto.Cmac
module Mem_store = Rdb_storage.Mem_store
module Ledger = Rdb_chain.Ledger
module Host = Replica_host

let group_mac_secret = "resdb-demo-mac!!"
let client_signer () = Signer.create (Rdb_des.Rng.create 4242L) Signer.Ed25519

let parse_peers s =
  String.split_on_char ',' s
  |> List.mapi (fun i hp ->
         match String.split_on_char ':' hp with
         | [ host; port ] -> (i, (host, int_of_string port))
         | _ -> failwith ("bad peer: " ^ hp))

let apply_kv store ~client:_ ~payload =
  match String.split_on_char ' ' payload with
  | [ "SET"; k; v ] ->
    Mem_store.put store k v;
    "OK"
  | [ "GET"; k ] -> Option.value ~default:"(nil)" (Mem_store.get store k)
  | [ "DEL"; k ] ->
    Mem_store.delete store k;
    "OK"
  | _ -> "ERR"

type t = {
  host : Host.t;
  transport : Tcp.t;
  lock : Mutex.t;  (** serializes the receive thread and the flush thread *)
  running : bool Atomic.t;
  flusher : Thread.t;
}

type status = { executed_txns : int; last_executed : int; chain_blocks : int; leads : bool }

let start ?(verbose = false) ?(port = 0) ~id ~n ~batch_size () =
  (* A peer or client that goes away must not take this process with it. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let config = Config.make ~n () in
  let verifier = Signer.verifier (client_signer ()) in
  let requests : (int, Host.request) Hashtbl.t = Hashtbl.create 256 in
  let reply_addr : (int, string * int) Hashtbl.t = Hashtbl.create 16 in
  let transport = ref None in
  let tp () = Option.get !transport in
  (* Client ids are mapped into the transport directory above the replica
     id space. *)
  let client_peer c = n + c in
  let note_client c addr =
    if Hashtbl.find_opt reply_addr c <> Some addr then begin
      Hashtbl.replace reply_addr c addr;
      Tcp.add_peer (tp ()) (client_peer c) addr
    end
  in
  (* Pre-prepares ship the request bodies and client reply addresses the
     batch references: the protocol core itself is payload-agnostic. *)
  let attachments = function
    | Msg.Pre_prepare { batch; _ } ->
      List.filter_map
        (fun (r : Msg.request_ref) ->
          let txn = Hashtbl.find_opt requests r.Msg.txn_id in
          match (txn, Hashtbl.find_opt reply_addr r.Msg.client) with
          | Some req, Some (a_reply_host, a_reply_port) ->
            Some
              {
                Wire.a_txn_id = r.Msg.txn_id;
                a_client = req.Host.client;
                a_reply_host;
                a_reply_port;
                a_payload = req.Host.payload;
              }
          | _ -> None)
        batch.Msg.reqs
    | _ -> []
  in
  (* A broadcast hands the same message and tag to [send] once per peer:
     build its frame, attachments included, once. *)
  let last_frame = ref None in
  let send ~dst ~tag msg =
    let frame =
      match !last_frame with
      | Some (m, t, frame) when m == msg && String.equal t tag -> frame
      | _ ->
        let frame = Wire.encode (Wire.Consensus { msg; tag; attachments = attachments msg }) in
        last_frame := Some (msg, tag, frame);
        frame
    in
    ignore (Tcp.send (tp ()) ~to_:dst frame)
  in
  let reply ~client = function
    | Msg.Reply { txn_id; from; result; _ } ->
      let frame = Wire.encode (Wire.Reply { txn_id; from; result }) in
      ignore (Tcp.send (tp ()) ~to_:(client_peer client) frame)
    | _ -> ()
  in
  let host =
    Host.create ~core:(Core.pbft config ~id) ~config ~id ~mac:(Cmac.of_secret group_mac_secret)
      ~ledger:(Ledger.create ~primary_id:0) ~batch_size ~apply:apply_kv
      ~lookup:(Hashtbl.find_opt requests) ~send ~reply ()
  in
  let lock = Mutex.create () in
  let log fmt =
    Printf.ksprintf (fun s -> if verbose then Printf.eprintf "[node %d] %s\n%!" id s) fmt
  in
  let on_message ~payload =
    match Wire.decode payload with
    | Error e -> log "bad frame: %s" e
    | Ok (Wire.Request { client; reply_host; reply_port; txn_id; payload; signature }) ->
      if Wire.verify_request verifier ~client ~txn_id ~payload ~signature then
        Mutex.protect lock (fun () ->
            note_client client (reply_host, reply_port);
            if not (Hashtbl.mem requests txn_id) then begin
              Hashtbl.replace requests txn_id { Host.client; payload };
              Host.enqueue host txn_id
            end;
            Host.form_batches host ~force:false)
      else log "bad request signature"
    | Ok (Wire.Consensus { msg; tag; attachments }) ->
      (* Checked here, outside the lock, like request signatures: a TCP
         stream does not re-deliver, so the host's memo would only cost. *)
      if Host.mac_valid host msg ~tag then
        Mutex.protect lock (fun () ->
            List.iter
              (fun (a : Wire.attachment) ->
                note_client a.Wire.a_client (a.Wire.a_reply_host, a.Wire.a_reply_port);
                if not (Hashtbl.mem requests a.Wire.a_txn_id) then
                  Hashtbl.replace requests a.Wire.a_txn_id
                    { Host.client = a.Wire.a_client; payload = a.Wire.a_payload })
              attachments;
            Host.deliver host msg)
      else log "bad MAC"
    | Ok (Wire.Reply _) -> ()
  in
  transport := Some (Tcp.create ~port ~on_message ());
  let running = Atomic.make true in
  let flusher =
    Thread.create
      (fun () ->
        while Atomic.get running do
          Thread.delay 0.005;
          Mutex.protect lock (fun () -> Host.form_batches host ~force:true)
        done)
      ()
  in
  { host; transport = tp (); lock; running; flusher }

let port t = Tcp.port t.transport
let set_peers t peers = Tcp.set_peers t.transport peers

let status t =
  Mutex.protect t.lock (fun () ->
      {
        executed_txns = Host.executed_txns t.host;
        last_executed = Host.last_executed t.host;
        chain_blocks = Ledger.length (Host.ledger t.host);
        leads = Host.leads t.host;
      })

let state_digest t = Mutex.protect t.lock (fun () -> Mem_store.digest (Host.store t.host))

let stop t =
  Atomic.set t.running false;
  Thread.join t.flusher;
  Tcp.shutdown t.transport
