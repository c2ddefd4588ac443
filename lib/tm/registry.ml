type entry = {
  entry_name : string;
  entry_describe : string;
  impl : (module Tm_intf.S);
  responsive : bool;
}

let of_module ?(responsive = true) (module M : Tm_intf.S) =
  {
    entry_name = M.name;
    entry_describe = M.describe;
    impl = (module M);
    responsive;
  }

let all =
  [
    of_module ~responsive:false (module Global_lock);
    of_module (module Fgp);
    of_module (module Tl2);
    of_module (module Tinystm);
    of_module (Tinystm.make ~extension:true);
    of_module (module Swisstm);
    of_module (module Dstm);
    of_module (Dstm.make (Cm.polite 4));
    of_module (Dstm.make Cm.karma);
    of_module (Dstm.make Cm.greedy);
    of_module (module Ostm);
    of_module ~responsive:false (module Norec);
    of_module (module Mvstm);
    of_module (module Quiescent);
    of_module ~responsive:false (module Twopl);
    of_module (module Fgp.Priority);
  ]

let responsive = List.filter (fun e -> e.responsive) all

let find name = List.find_opt (fun e -> e.entry_name = name) all

let names = List.map (fun e -> e.entry_name) all

let instance e cfg = Tm_intf.pack e.impl cfg
