open Tm_history

type config = {
  tm : Tm_impl.Registry.entry;
  pattern : string;
  seed : int;
  spec : Runner.spec;
}

let label c =
  Fmt.str "%s/%s/seed=%d" c.tm.Tm_impl.Registry.entry_name c.pattern c.seed

let fault_patterns ?(nprocs = 3) ?(ntvars = 4) ?(steps = 1000)
    ?(sched = Runner.Uniform) () =
  let spec ?(fates = []) ~seed () =
    Runner.spec ~nprocs ~ntvars ~steps ~seed ~sched ~fates ()
  in
  [
    ("healthy", fun ~seed -> spec ~seed ());
    ("crash", fun ~seed -> spec ~fates:[ (1, Runner.Crash_after_write 1) ] ~seed ());
    ( "parasite",
      fun ~seed -> spec ~fates:[ (1, Runner.Parasitic_from (steps / 10)) ] ~seed () );
    ( "mixed",
      fun ~seed ->
        spec
          ~fates:
            [
              (1, Runner.Crash_at (steps / 2));
              (2, Runner.Parasitic_from (steps / 10));
            ]
          ~seed () );
  ]

let grid ?tms ?patterns ~seeds () =
  let tms = match tms with Some l -> l | None -> Tm_impl.Registry.all in
  let patterns =
    match patterns with Some l -> l | None -> fault_patterns ()
  in
  List.concat_map
    (fun tm ->
      List.concat_map
        (fun (pattern, mk) ->
          List.map (fun seed -> { tm; pattern; seed; spec = mk ~seed }) seeds)
        patterns)
    tms

type traced = {
  t_history : History.t;
  t_trace : Tm_trace.Trace_event.t list;
}

type result = {
  r_config : config;
  r_metrics : Metrics.t;
  r_traced : traced option;
}

(* An untraced run builds no history: its metrics are tallied as it
   goes. *)
let run_one ~trace c =
  if trace then begin
    let col = Tm_trace.Sink.collector () in
    let outcome =
      Runner.run ~trace:(Tm_trace.Sink.collector_sink col) c.tm c.spec
    in
    {
      r_config = c;
      r_metrics = outcome.Runner.metrics;
      r_traced =
        Some
          {
            t_history = outcome.Runner.history;
            t_trace = Tm_trace.Sink.collected col;
          };
    }
  end
  else { r_config = c; r_metrics = Runner.metrics c.tm c.spec; r_traced = None }

let run ?pool ?(trace = false) configs =
  let configs = Array.of_list configs in
  let results =
    match pool with
    | Some p when Pool.jobs p > 1 -> Pool.map_array p (run_one ~trace) configs
    | Some _ | None -> Array.map (run_one ~trace) configs
  in
  Array.to_list results

let by_tm results =
  List.fold_left
    (fun acc r ->
      let name = r.r_config.tm.Tm_impl.Registry.entry_name in
      match List.assoc_opt name acc with
      | Some _ ->
          List.map
            (fun (n, m') ->
              if n = name then (n, Metrics.merge m' r.r_metrics) else (n, m'))
            acc
      | None -> acc @ [ (name, r.r_metrics) ])
    [] results

let to_json results =
  let json = Tm_trace.Export.add_json_string in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"runs\":[";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf "{\"tm\":%a,\"pattern\":%a,\"seed\":%d,\"metrics\":"
        json r.r_config.tm.Tm_impl.Registry.entry_name json r.r_config.pattern
        r.r_config.seed;
      Metrics.to_json buf r.r_metrics;
      Buffer.add_char buf '}')
    results;
  Buffer.add_string buf "],\"by_tm\":[";
  List.iteri
    (fun i (name, m) ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf "{\"tm\":%a,\"metrics\":" json name;
      Metrics.to_json buf m;
      Buffer.add_char buf '}')
    (by_tm results);
  Buffer.add_string buf "]}";
  Buffer.contents buf

let pp_table ppf results =
  Fmt.pf ppf "%-36s %8s %8s %-17s %8s %9s@." "config" "commits" "aborts"
    "abort r/w/c" "defers" "lat-mean";
  List.iter
    (fun r ->
      let m = r.r_metrics in
      Fmt.pf ppf "%-36s %8d %8d %5d/%5d/%5d %8d %9.1f@."
        (label r.r_config) m.Metrics.commits m.Metrics.aborts
        m.Metrics.abort_causes.Metrics.on_read
        m.Metrics.abort_causes.Metrics.on_write
        m.Metrics.abort_causes.Metrics.on_commit m.Metrics.defers
        (Hist.mean m.Metrics.commit_latency))
    results

module Exhaustive = struct
  type action = Invoke of Event.proc * Event.invocation | Poll of Event.proc

  (* The largest read value whose response event is shared. *)
  let max_shared_value = 63

  (* The menu both walks share, built once: [Poll p] for a process with
     a pending invocation, otherwise each of [invocations] in order, as
     [(invocation, action, invocation event)].  It is range-checked up
     front, so an invalid invocation raises even where no TM would see
     it. *)
  let menu ~nprocs ~ntvars ~invocations ~depth =
    let cfg = Tm_impl.Tm_intf.config ~nprocs ~ntvars () in
    if depth > 0 && nprocs > 0 then
      List.iter (Tm_impl.Tm_intf.Mailbox.check_range cfg 1) invocations;
    let polls = Array.init (nprocs + 1) (fun p -> Poll p) in
    let menus =
      Array.init (nprocs + 1) (fun p ->
          Array.of_list
            (List.map
               (fun inv -> (inv, Invoke (p, inv), Event.Inv (p, inv)))
               invocations))
    in
    (cfg, polls, menus)

  (* Depth-first, preorder.  A child node is its parent's TM advanced by
     one action, and the parent's history extended by the event that
     action produced (if any): O(1) TM steps per node.  The walk creates
     one TM per level up front, [slots.(d)] for the children at remaining
     depth [d], and a child acts on its level's slot only where a later
     sibling still needs the parent:
     - an invocation at the last level needs no TM: its TM would never be
       polled, so only its history is built (the menu is range-checked up
       front, so an invalid invocation raises without [M.invoke]);
     - the last child (the last enabled action of process [nprocs]) acts
       on the parent's instance itself: every [pending] read of the
       parent happened before it, and nothing reads the parent after it;
     - every other child blits the parent into the slot below and acts
       there.  A node's TM is its own level's slot or an ancestor's (the
       last child's), never a slot below it, so the blit overwrites no
       live TM.
     The path is one array with the current length in [len]; [actions]
     reads it, so it is valid only during the callback.  Answered polls
     append shared events: [ok], [C], [A] and reads of the values the
     menu writes (up to [max_shared_value]) come from one table. *)
  let run (entry : Tm_impl.Registry.entry) ~nprocs ~ntvars ~invocations
      ~depth ~on_history =
    let (module M) = entry.Tm_impl.Registry.impl in
    let cfg, polls, menus = menu ~nprocs ~ntvars ~invocations ~depth in
    let written =
      List.fold_left
        (fun m -> function Event.Write (_, v) -> max m v | _ -> m)
        0 invocations
    in
    let responses =
      Event.responses ~nprocs ~values:(1 + min max_shared_value written)
    in
    let path = Array.make (max depth 0) polls.(0) and len = ref 0 in
    let actions () = List.init !len (Array.get path) in
    let slots = Array.init (max depth 0 + 1) (fun _ -> M.create cfg) in
    let blit_below tm below =
      M.blit tm ~into:below;
      below
    in
    let rec visit tm h d =
      on_history h actions;
      if d > 0 then begin
        let i = depth - d and below = slots.(d - 1) in
        for p = 1 to nprocs do
          match M.pending tm p with
          | Some _ ->
              let tm' = if p = nprocs then tm else blit_below tm below in
              let h' =
                match M.poll tm' p with
                | Some r -> History.append h (Event.response responses p r)
                | None -> h
              in
              path.(i) <- polls.(p);
              len := i + 1;
              visit tm' h' (d - 1)
          | None ->
              let menu = menus.(p) in
              let last = Array.length menu - 1 in
              for k = 0 to last do
                let inv, a, e = menu.(k) in
                let h' = History.append h e in
                path.(i) <- a;
                len := i + 1;
                if d = 1 then on_history h' actions
                else begin
                  let tm' =
                    if p = nprocs && k = last then tm else blit_below tm below
                  in
                  M.invoke tm' p inv;
                  visit tm' h' (d - 1)
                end
              done
        done
      end
    in
    visit slots.(max depth 0) History.empty depth

  type screen = { checked : int; fallbacks : int; non_opaque : History.t list }

  let screen ?(ntvars = 1) entry ~depth =
    let invocations =
      List.init ntvars (fun x -> Event.Read x)
      @ List.init ntvars (fun x -> Event.Write (x, 1))
      @ [ Event.Try_commit ]
    in
    let checked = ref 0 and fallbacks = ref 0 and bad = ref [] in
    run entry ~nprocs:2 ~ntvars ~invocations ~depth ~on_history:(fun h _ ->
        incr checked;
        match Tm_safety.Monitor.run h with
        | Tm_safety.Monitor.Accepted -> ()
        | Tm_safety.Monitor.No_witness _ ->
            incr fallbacks;
            if not (Tm_safety.Opacity.is_opaque h) then bad := h :: !bad);
    { checked = !checked; fallbacks = !fallbacks; non_opaque = List.rev !bad }

  let count_nodes entry ~nprocs ~ntvars ~invocations ~depth =
    let n = ref 0 in
    run entry ~nprocs ~ntvars ~invocations ~depth ~on_history:(fun _ _ ->
        incr n);
    !n

  type 'k graph = {
    states : ('k * action list) list;
    edges : ('k * action * Event.response option * 'k) list;
    complete : bool;
  }

  (* Breadth-first, one layer at a time: a child is a copy of its
     parent's TM advanced by one action, and it joins the next layer
     only when its key is new. *)
  let graph (type a) (module M : Tm_impl.Tm_intf.S with type t = a) ~key
      ~nprocs ~ntvars ~invocations ~depth =
    let cfg, polls, menus = menu ~nprocs ~ntvars ~invocations ~depth in
    let seen = Hashtbl.create 64 and states = ref [] and edges = ref [] in
    let discover next tm rev_path =
      let k = key tm in
      if not (Hashtbl.mem seen k) then begin
        Hashtbl.add seen k ();
        states := (k, List.rev rev_path) :: !states;
        next := (tm, k, rev_path) :: !next
      end;
      k
    in
    let expand next (tm, k, rev_path) =
      let child a step =
        let tm' = M.copy tm in
        let r = step tm' in
        edges := (k, a, r, discover next tm' (a :: rev_path)) :: !edges
      in
      for p = 1 to nprocs do
        match M.pending tm p with
        | Some _ -> child polls.(p) (fun tm' -> M.poll tm' p)
        | None ->
            Array.iter
              (fun (inv, a, _) ->
                child a (fun tm' ->
                    M.invoke tm' p inv;
                    None))
              menus.(p)
      done
    in
    let rec walk layer d =
      match layer with
      | [] -> true
      | _ when d = depth -> false
      | _ ->
          let next = ref [] in
          List.iter (expand next) layer;
          walk (List.rev !next) (d + 1)
    in
    let root = ref [] in
    ignore (discover root (M.create cfg) []);
    let complete = walk !root 0 in
    { states = List.rev !states; edges = List.rev !edges; complete }

  let to_dot ~state_label g =
    let buf = Buffer.create 1024 in
    let names = Hashtbl.create 16 in
    List.iteri
      (fun i (k, _) -> Hashtbl.replace names k ("s" ^ string_of_int (i + 1)))
      g.states;
    let name_of = Hashtbl.find names in
    Buffer.add_string buf "digraph automaton {\n  rankdir=LR;\n";
    List.iter
      (fun (k, _) ->
        Buffer.add_string buf
          (Printf.sprintf "  %s [label=%S];\n" (name_of k) (state_label k)))
      g.states;
    List.iter
      (fun (k, a, _, k') ->
        Buffer.add_string buf
          (Printf.sprintf "  %s -> %s [label=%S];\n" (name_of k) (name_of k')
             (match a with
             | Invoke (_, inv) -> Fmt.str "%a" Event.pp_invocation inv
             | Poll _ -> "poll")))
      g.edges;
    Buffer.add_string buf "}\n";
    Buffer.contents buf

  let fig15 () =
    graph
      (module Tm_impl.Fgp)
      ~key:Tm_impl.Fgp.state ~nprocs:1 ~ntvars:1
      ~invocations:Event.[ Read 0; Write (0, 0); Write (0, 1); Try_commit ]
      ~depth:5
end
