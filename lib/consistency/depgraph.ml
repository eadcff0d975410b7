open Conddep_relational
open Conddep_core

(* The dependency graph G[Σ] of Section 5.3: one vertex per relation,
   carrying CFD(R); an edge Ri -> Rj for each nonempty CIND(Ri, Rj).
   preProcessing mutates the graph (extends CFD sets, deletes vertices), so
   the structure is imperative.

   Internally every vertex is the relation's interned symbol id
   ([Interner.symbol]): traversals (Tarjan, union-find, liveness) hash and
   compare ints instead of re-hashing strings on every step.  The public
   API stays in terms of relation names. *)

let sym = Interner.symbol
let name = Interner.symbol_name

type t = {
  schema : Db_schema.t;
  cfds : (int, Cfd.nf list) Hashtbl.t;
  all_cinds : Cind.nf list;
  edge_labels : (int * int, Cind.nf list) Hashtbl.t; (* src, dst *)
  out_edges : (int, int list) Hashtbl.t;
  in_edges : (int, int list) Hashtbl.t;
  mutable live : int list; (* deterministic (schema) order *)
  live_set : (int, unit) Hashtbl.t; (* O(1) membership *)
}

let make schema (sigma : Sigma.nf) =
  Telemetry.with_span "checking.depgraph.build" @@ fun () ->
  let rels = List.map sym (Db_schema.rel_names schema) in
  (* CFD(R) in Σ order, grouped in one pass; CFDs on relations outside
     the schema are dropped. *)
  let cfds = Hashtbl.create 16 in
  List.iter (fun r -> Hashtbl.replace cfds r []) rels;
  List.iter
    (fun (c : Cfd.nf) ->
      let r = sym c.Cfd.nf_rel in
      match Hashtbl.find_opt cfds r with
      | Some l -> Hashtbl.replace cfds r (c :: l)
      | None -> ())
    (List.rev sigma.Sigma.ncfds);
  let edge_labels = Hashtbl.create 64 in
  List.iter
    (fun (c : Cind.nf) ->
      let key = (sym c.Cind.nf_lhs, sym c.nf_rhs) in
      Hashtbl.replace edge_labels key
        (c :: Option.value ~default:[] (Hashtbl.find_opt edge_labels key)))
    sigma.ncinds;
  let out_edges = Hashtbl.create 64 and in_edges = Hashtbl.create 64 in
  Hashtbl.iter
    (fun (src, dst) _ ->
      Hashtbl.replace out_edges src
        (dst :: Option.value ~default:[] (Hashtbl.find_opt out_edges src));
      Hashtbl.replace in_edges dst
        (src :: Option.value ~default:[] (Hashtbl.find_opt in_edges dst)))
    edge_labels;
  let live_set = Hashtbl.create 16 in
  List.iter (fun r -> Hashtbl.replace live_set r ()) rels;
  {
    schema;
    cfds;
    all_cinds = sigma.Sigma.ncinds;
    edge_labels;
    out_edges;
    in_edges;
    live = rels;
    live_set;
  }

let schema t = t.schema
let live t = List.map name t.live
let live_id t r = Hashtbl.mem t.live_set r
let is_live t r = live_id t (sym r)

let cfd_set_id t r = match Hashtbl.find_opt t.cfds r with Some l -> l | None -> []
let cfd_set t r = cfd_set_id t (sym r)

let add_cfds t r extra =
  let r = sym r in
  Hashtbl.replace t.cfds r (extra @ cfd_set_id t r)

let remove t r =
  let r = sym r in
  Hashtbl.remove t.live_set r;
  t.live <- List.filter (fun x -> x <> r) t.live

(* CINDs of Σ between two live vertices — the edge label CIND(Ri, Rj). *)
let cinds_between t ~src ~dst =
  Option.value ~default:[] (Hashtbl.find_opt t.edge_labels (sym src, sym dst))

let successors_id t r =
  List.filter (live_id t) (Option.value ~default:[] (Hashtbl.find_opt t.out_edges r))

let successors t r = List.map name (successors_id t (sym r))

let predecessors t r =
  List.map name
    (List.filter (live_id t)
       (Option.value ~default:[] (Hashtbl.find_opt t.in_edges (sym r))))

let indegree t r = List.length (predecessors t r)

let edges_id t =
  List.concat_map (fun s -> List.map (fun d -> (s, d)) (successors_id t s)) t.live

let edges t = List.map (fun (s, d) -> (name s, name d)) (edges_id t)

(* Tarjan's strongly-connected-components algorithm.  SCCs are emitted in
   reverse topological order of the condensation: every SCC appears after
   all SCCs it reaches — i.e. targets first, which is exactly the
   processing order Fig 7 wants (Rj precedes Ri when there is an edge
   Ri -> Rj; vertices on a cycle in arbitrary order). *)
let sccs t =
  Telemetry.with_span "checking.depgraph.sccs" @@ fun () ->
  let index = Hashtbl.create 16 in
  let lowlink = Hashtbl.create 16 in
  let on_stack = Hashtbl.create 16 in
  let stack = ref [] in
  let counter = ref 0 in
  let components = ref [] in
  let rec strongconnect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v true;
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          Hashtbl.replace lowlink v (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
        end
        else if Hashtbl.find_opt on_stack w = Some true then
          Hashtbl.replace lowlink v (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
      (successors_id t v);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
            stack := rest;
            Hashtbl.replace on_stack w false;
            if w = v then w :: acc else pop (w :: acc)
      in
      components := pop [] :: !components
    end
  in
  List.iter (fun v -> if not (Hashtbl.mem index v) then strongconnect v) t.live;
  List.rev_map (List.map name) !components

(* Topological processing order for Fig 7: flatten the SCCs in Tarjan's
   emission order (reverse topological on the condensation). *)
let topo_order t = List.concat (sccs t)

(* Weakly connected components of the live graph — the components Checking
   (Fig 9) analyses independently. *)
let weak_components t =
  let parent = Hashtbl.create 16 in
  let rec find r =
    match Hashtbl.find_opt parent r with
    | Some p when p <> r ->
        let root = find p in
        Hashtbl.replace parent r root;
        root
    | _ -> r
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then Hashtbl.replace parent ra rb
  in
  List.iter (fun r -> Hashtbl.replace parent r r) t.live;
  List.iter (fun (s, d) -> union s d) (edges_id t);
  let groups = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let root = find r in
      Hashtbl.replace groups root
        (r :: Option.value ~default:[] (Hashtbl.find_opt groups root)))
    t.live;
  Hashtbl.fold (fun _ members acc -> List.rev_map name members :: acc) groups []

(* The constraints over one component: its (extended) CFD sets plus the
   CINDs both of whose endpoints lie inside. *)
let component_sigma t members =
  let inside = Hashtbl.create 16 in
  List.iter (fun r -> Hashtbl.replace inside (sym r) ()) members;
  {
    Sigma.ncfds = List.concat_map (cfd_set t) members;
    ncinds =
      List.filter
        (fun c -> Hashtbl.mem inside (sym c.Cind.nf_lhs) && Hashtbl.mem inside (sym c.nf_rhs))
        t.all_cinds;
  }

let pp ppf t =
  Fmt.pf ppf "@[<v>vertices: %a@,edges: %a@]"
    Fmt.(list ~sep:comma string)
    (live t)
    Fmt.(list ~sep:comma (pair ~sep:(any "->") string string))
    (edges t)
