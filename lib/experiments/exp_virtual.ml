module Simtime = Engine.Simtime
module Container = Rescont.Container
module Attrs = Rescont.Attrs
module Process = Procsim.Process
module Socket = Netsim.Socket
module Event_server = Httpsim.Event_server
module Cgi = Httpsim.Cgi
module Sclient = Workload.Sclient

type guest_result = {
  name : string;
  allocated_share : float;
  measured_share : float;
  static_throughput : float;
  cgi_share_within_guest : float;
}

type guest = {
  g_name : string;
  g_share : float;
  g_container : Container.t;
  g_cgi_parent : Container.t;
  g_clients : Sclient.t;
  g_cgi_clients : Sclient.t;
}

(* Each guest's CPU share; 16 static clients per guest saturate all three. *)
let shares = [ 0.5; 0.3; 0.2 ]
let clients_per_guest = 16

let run ?(warmup = Simtime.sec 5) ?(measure = Simtime.sec 15) () =
  let rig = Harness.make_rig Harness.Rc_sys in
  let make_guest index share =
    let g_name = Printf.sprintf "guest-%d" (index + 1) in
    (* Top-level fixed-share container: the guest's whole allocation. *)
    let g_container =
      Container.create ~parent:rig.Harness.root ~name:g_name
        ~attrs:(Attrs.fixed_share ~share ())
        ()
    in
    (* The guest re-divides its allocation: half for CGI at most. *)
    let g_cgi_parent =
      Container.create ~parent:g_container ~name:(g_name ^ "-cgi")
        ~attrs:(Attrs.fixed_share ~share:0.5 ~cpu_limit:0.5 ())
        ()
    in
    let proc =
      Process.create rig.Harness.machine ~container_parent:g_container ~name:g_name ()
    in
    (* Each guest server process gets its own network kernel thread
       (paper §5.1: "a per-process kernel thread"). *)
    Netsim.Stack.add_service rig.Harness.stack ~name:(g_name ^ "-netisr")
      ~home:(Process.default_container proc)
      ~covers:(fun c -> Container.has_ancestor c ~ancestor:g_container);
    let port = 8001 + index in
    let listen =
      Socket.make_listen ~port ~container:(Process.default_container proc) ()
    in
    let cgi =
      Cgi.create ~stack:rig.Harness.stack ~server_process:proc ~cgi_parent:g_cgi_parent ()
    in
    let server =
      Event_server.create ~stack:rig.Harness.stack ~process:proc ~cache:rig.Harness.cache
        ~api:Event_server.Select ~policy:Event_server.Inherit_listen
        ~dynamic_handler:(Cgi.handler cgi) ~listens:[ listen ] ()
    in
    ignore (Event_server.start server);
    let g_clients =
      Sclient.create ~stack:rig.Harness.stack ~name:(g_name ^ "-static")
        ~src_base:(Netsim.Ipaddr.v 10 (30 + index) 0 1)
        ~port ~path:Harness.doc_path ~count:clients_per_guest ()
    in
    let g_cgi_clients =
      Sclient.create ~stack:rig.Harness.stack ~name:(g_name ^ "-cgi")
        ~src_base:(Netsim.Ipaddr.v 10 (40 + index) 0 1)
        ~port ~path:Harness.cgi_path ~syn_timeout:(Simtime.sec 60) ~count:2 ()
    in
    Sclient.start g_clients;
    Sclient.start g_cgi_clients;
    { g_name; g_share = share; g_container; g_cgi_parent; g_clients; g_cgi_clients }
  in
  let guests = List.mapi make_guest shares in
  Harness.run_for rig warmup;
  let marks =
    List.map
      (fun g ->
        Sclient.reset_stats g.g_clients;
        (Container.subtree_cpu g.g_container, Container.subtree_cpu g.g_cgi_parent))
      guests
  in
  Harness.run_for rig measure;
  List.map2
    (fun g (cpu0, cgi0) ->
      let guest_cpu = Simtime.span_sub (Container.subtree_cpu g.g_container) cpu0 in
      let cgi_cpu = Simtime.span_sub (Container.subtree_cpu g.g_cgi_parent) cgi0 in
      {
        name = g.g_name;
        allocated_share = g.g_share;
        measured_share = Simtime.ratio guest_cpu measure;
        static_throughput =
          float_of_int (Sclient.completed g.g_clients) /. Simtime.span_to_sec_f measure;
        cgi_share_within_guest = Simtime.ratio cgi_cpu (Simtime.span_max guest_cpu (Simtime.ns 1));
      })
    guests marks

let table () =
  let results = run () in
  let t =
    Engine.Series.table ~title:"§5.8: isolation of virtual servers (guest CPU vs allocation)"
      ~columns:
        [ "guest"; "allocated CPU share"; "measured CPU share"; "static req/s";
          "CGI share within guest" ]
  in
  List.iter
    (fun r ->
      Engine.Series.add_row t
        [
          r.name;
          Printf.sprintf "%.1f%%" (100. *. r.allocated_share);
          Printf.sprintf "%.1f%%" (100. *. r.measured_share);
          Printf.sprintf "%.0f" r.static_throughput;
          Printf.sprintf "%.1f%%" (100. *. r.cgi_share_within_guest);
        ])
    results;
  t
