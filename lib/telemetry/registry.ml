(* A named collection of metrics, each a read of state its owner keeps.

   Registration takes a mutex (it happens at setup time); the owners'
   write paths never touch the registry.  A scrape calls the reads in
   registration order and freezes their values into a plain snapshot,
   so exporters and dashboards work on immutable data and the output
   ordering is deterministic by construction. *)

type value =
  | Num of int
  | Hist of Tm_sim.Hist.t
  | State_of of { states : string array; current : int }

type kind = Counter | Gauge | Histogram | State

type metric = {
  m_name : string;
  m_help : string;
  m_kind : kind;
  m_labels : (string * string) list;
  m_read : unit -> value;
}

type t = { mutable rev_metrics : metric list; mu : Mutex.t }

let create () = { rev_metrics = []; mu = Mutex.create () }

let sort_labels labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let register t ~name ~help ~labels kind read =
  let m =
    {
      m_name = name;
      m_help = help;
      m_kind = kind;
      m_labels = sort_labels labels;
      m_read = read;
    }
  in
  Mutex.protect t.mu (fun () -> t.rev_metrics <- m :: t.rev_metrics)

let counter t ?(labels = []) ~help name read =
  register t ~name ~help ~labels Counter (fun () -> Num (read ()))

let gauge t ?(labels = []) ~help name read =
  register t ~name ~help ~labels Gauge (fun () -> Num (read ()))

let histogram t ?(labels = []) ~help name read =
  register t ~name ~help ~labels Histogram (fun () -> Hist (read ()))

(* The [key] label slot is a placeholder: the exporter expands a state
   metric into one 0/1 sample per state, substituting each state name
   as the [key] label's value. *)
let state t ?(labels = []) ~key ~states ~help name read =
  if Array.length states = 0 then invalid_arg "Registry.state: no states";
  register t ~name ~help
    ~labels:((key, "") :: labels)
    State
    (fun () -> State_of { states; current = read () })

(* ---- scraping ---- *)

type sample = {
  s_name : string;
  s_help : string;
  s_kind : kind;
  s_labels : (string * string) list;
  s_value : value;
}

type snapshot = { ts : int; samples : sample list }

let sample_of_metric m =
  {
    s_name = m.m_name;
    s_help = m.m_help;
    s_kind = m.m_kind;
    s_labels = m.m_labels;
    s_value = m.m_read ();
  }

let scrape t ~ts =
  let metrics = Mutex.protect t.mu (fun () -> t.rev_metrics) in
  { ts; samples = List.rev_map sample_of_metric metrics }

(* ---- snapshot lookups (dashboards, tests) ---- *)

let state_key labels =
  (* The placeholder inserted by [state]: the label whose value the
     exporter substitutes per state. *)
  List.find_opt (fun (_, v) -> String.equal v "") labels

let find snap ~name ~labels =
  let labels = sort_labels labels in
  List.find_opt
    (fun s ->
      String.equal s.s_name name
      &&
      match s.s_value with
      | State_of _ -> (
          match state_key s.s_labels with
          | Some (k, _) ->
              List.for_all (fun (k', v') -> k' = k || List.mem (k', v') labels)
                s.s_labels
              && List.for_all
                   (fun (k', v') -> k' = k || List.mem (k', v') s.s_labels)
                   labels
          | None -> s.s_labels = labels)
      | Num _ | Hist _ -> s.s_labels = labels)
    snap.samples

let sample_num snap ~name ~labels =
  match find snap ~name ~labels with
  | Some { s_value = Num v; _ } -> Some v
  | Some _ | None -> None

let sample_hist snap ~name ~labels =
  match find snap ~name ~labels with
  | Some { s_value = Hist h; _ } -> Some h
  | Some _ | None -> None

let sample_state snap ~name ~labels =
  match find snap ~name ~labels with
  | Some { s_value = State_of { states; current }; _ } -> Some states.(current)
  | Some _ | None -> None
