type t =
  | Policy_parse of string
  | Unknown_tenant of string
  | Synthesis of string
  | Deploy of string
  | Config of string
  | Unavailable of string

let to_string = function
  | Policy_parse msg -> "policy: " ^ msg
  | Unknown_tenant name -> "unknown tenant " ^ name
  | Synthesis msg -> "synthesis: " ^ msg
  | Deploy msg -> "deploy: " ^ msg
  | Config msg -> "config: " ^ msg
  | Unavailable msg -> "unavailable: " ^ msg

let equal (a : t) b = a = b
