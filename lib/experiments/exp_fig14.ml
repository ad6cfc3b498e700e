module Attrs = Rescont.Attrs
module Ipaddr = Netsim.Ipaddr

type variant = Unmod_flood | Lrp_flood | Rc_filtered

let variant_name = function
  | Unmod_flood -> "Unmodified System"
  | Lrp_flood -> "LRP System"
  | Rc_filtered -> "With Resource Containers"

let flood_base = Ipaddr.v 192 168 66 0

let scenario variant ~syn_rate =
  let rc =
    (* The filter mechanism of §4.8: a listen socket covering the
       attacker's prefix, bound to a priority-0 container.  LRP has no
       source-address filtering (§5.7): one shared listen socket, flood
       and legitimate traffic in the same queue. *)
    {
      Scenario.server with
      listens =
        [
          {
            Scenario.listen with
            bind = Named "attackers";
            filter = Netsim.Filter.prefix ~template:flood_base ~bits:24;
            syn_backlog = 64;
          };
          { Scenario.listen with bind = Named "service" };
        ];
      policy = Inherit_listen;
    }
  in
  {
    Scenario.base with
    system =
      (match variant with
      | Unmod_flood -> Harness.Unmodified
      | Lrp_flood -> Harness.Lrp_sys
      | Rc_filtered -> Harness.Rc_sys);
    containers =
      (if variant = Rc_filtered then
         [
           { name = "service"; parent = None; attrs = Attrs.timeshare ~priority:10 () };
           { name = "attackers"; parent = None; attrs = Attrs.timeshare ~priority:0 () };
         ]
       else []);
    servers = [ (if variant = Rc_filtered then rc else Scenario.server) ];
    groups = [ { Scenario.group with name = "good"; count = 24 } ];
    flood =
      (if syn_rate > 0. then Some { src_count = 254; rate = syn_rate; seed = None } else None);
  }

let throughput s = Scenario.throughput (Scenario.window (Scenario.run s)) "good"

let variants = [ Rc_filtered; Lrp_flood; Unmod_flood ]

let figure ~rates ~measure ~jobs =
  let curve (v, points) =
    Engine.Series.curve_of_points (variant_name v)
      (List.map (fun (rate, y) -> (rate /. 1000., y)) points)
  in
  Engine.Series.figure ~title:"Figure 14: server behavior under SYN-flood attack"
    ~x_label:"SYN-flood rate (1000s of SYNs/sec)" ~y_label:"HTTP throughput (requests/sec)"
    (List.map curve
       (Harness.Sweep.grid ~jobs
          (fun v syn_rate ->
            throughput { (scenario v ~syn_rate) with windows = [ measure ] })
          variants rates))
